"""Every demo runs to completion at a small size.

The demos import the package's public names, so a name removed from the
package without its demo being updated fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "01_train_map.py": ["--days", "300"],
    "02_embed_and_project.py": ["--days", "300"],
    "03_fit_and_compare.py": ["--days", "400", "--iters", "400"],
    "04_transitions.py": ["--days", "400"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *DEMOS[demo]],
                          cwd=tmp_path, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
