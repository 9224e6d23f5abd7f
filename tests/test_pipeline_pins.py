"""The bytes of whole pipeline runs at a fixed seed, pinned.

Each benchmark workload (``perfbench/workloads.py``) writes its inputs and
runs its stage list at the tiny scale with seed 3, in a fresh process. Every
input and every output but the manifests has the sha256 pinned below; a
manifest is pinned with its wall time, its write time and the run's
directory taken out. A change that keeps these bytes keeps the pipeline's
results; one that must move them says which outputs move and why, and
re-pins them.

The process runs on one BLAS thread: the model11 sweep's products give other
bits on more threads, so the tiny ``spatial`` outputs depend on the thread
count.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RUN = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import stvar, stvar.cli, workloads
workload, root = sys.argv[2], Path(sys.argv[3])
inputs, out = root / "inputs", root / "out"
workloads.write_inputs(stvar, workload, 3, "tiny", inputs)
config = root / "config.json"
config.write_text(json.dumps({"seed": 3, "out": str(out),
                              "stages": workloads.stages(workload, "tiny", inputs, out)}))
sys.exit(stvar.cli.dispatch(["pipeline", "--config", str(config)]))
"""

PINS = {
    "fields": {
        "inputs/fields.series": "4eddf37cca6075f671d148f4889b3ae9309d33b508ae00cc7c76b63a97aa7e9a",
        "out/days.planar": "37d96a1c85e4a9288134191d8ce9391cb0cde36175684f6e990b41a9bf849c72",
        "out/distance_quantiles.csv": "c7a8bd13377dd352530a922d2b2d13d554760369d5a0ac4485eda0783a145865",
        "out/frequencies.csv": "7a280304a00a0ff9e5f83f4fb2e7737594c8b614177adbc57d199476a279d88f",
        "out/frequencies.manifest.json": "773fb9392c86982c28e9f43178feb6323603b2a42fbb100e6b3224e75be9ba48",
        "out/pipeline.manifest.json": "61ced2f318a1dc682167717fd058d9477a76d42ba473b2bada4d0bf24055f468",
        "out/project.manifest.json": "091f340ea835634adf4076bc53f98c69a8190cc146e989c7e9981ec2d3954808",
        "out/sammon.json": "52ca18aa9908f21f5402e80046f1d2beb47d0b2c84328568796b291b76de4ab7",
        "out/sammon.manifest.json": "facf52919aa3d7b4bd6e0d7156a4a05fc5054b5df80e58959dcbf6aeb171375e",
        "out/series.state": "600a33ba204595fa5b183cdc54fb9947cc316405ff921b9bf5f17e717881dd21",
        "out/som.json": "4d41ff87528850c32bb3e53fcc767f0339e408672ed500b22e21ece8777ac9ac",
        "out/som_sammon.json": "44907dfdc01d7858f3e63748efdcf740d805058b6ad12a39e278d2613f03a185",
        "out/standardize.manifest.json": "dd5d9d661a08f51beb2ed0fe4ecfc6a1b5b8f6a3c51b5019c303b6b8b14a2b9b",
        "out/train-som.manifest.json": "5e1e5c89ccd66364e5348dfbaee43818b2603c8d7984bf602940a5ee5d83e05e",
        "out/transitions.manifest.json": "d0f8343248d76bdd556c1d3c614c5939bce89d3bd45531f8a08904d358054ed6",
        "out/transitions_empirical.csv": "e079a798cd610b8e49da615d5addef360f872214d789dc3a087dccbf58489b86",
    },
    "ladder": {
        "inputs/series.planar": "62109eb7eeecfbde2fd96da3ff73e16ca4930f1fc761b6344cdf246158a10dca",
        "inputs/tessellation.json": "37a79a3c23142024508db0dbc99ad6103dbe2110c8fa2b352f1b099541041ae4",
        "out/distance_quantiles.csv": "45a86d160786e6dd0916926fee9488d30783435694683de3c91565b8d4070fa1",
        "out/evaluate.manifest.json": "27a19f396bc5415f2dc1086066906da9c4d126ab989758ab85b6eeb624e145ad",
        "out/fit_model1.manifest.json": "d9ccc5acc0a2cd4c909dccf67e7818b1c52f95f1137d763c6457dfdfecf586ec",
        "out/fit_model9.manifest.json": "e86803e965f442f43643e2b3b440f5c9d6f36eba49d0d0f634ff0225d51c0f4a",
        "out/lag-scan.manifest.json": "19564123461a1eab35a66c377c5cecebdbf84a5369127beb41f442d78289eba2",
        "out/lag_scan.json": "d3382661e63d9423a6989a8ce41f5c354c8414b27e18524d3971b79130cdb2bd",
        "out/model1.chain": "7f216d2ab4d761319e3efadca969f096eb3981615a591ce3b75590b700cfa316",
        "out/model9.chain": "4cbcc56d2248b9280950a060e089037dc4af9e7a18c3f9cca76b451f7ff1c6fe",
        "out/pipeline.manifest.json": "3f0225bb5c41da5d97cf05fedce503f175c6ab54d116e11f6ce3d05c5d5b9ca3",
        "out/predict.manifest.json": "9303e3ada298214f956cbf46b141b5d438188a84b4732c513abef3ae5b27c60d",
        "out/predictions.csv": "5425cfc6bb7564b6945ac8724d67183a0655602c2c2fdfadb496239ef303a66c",
        "out/report.txt": "ec6a9c71b634345e979190df47ed78dfe7b4e8df09a4013851c36a9a5315f8da",
        "out/scores.json": "151134e06db5e63f41613c6cc83a9ea19be7941002b91f2cb61b81b2d3d652bd",
        "out/transitions.manifest.json": "e43a88d8cd7e31626244710857a7b82aa7dcfef9b782c86e8c2b68a8cf123f58",
        "out/transitions_empirical.csv": "c3dfb4fddd4571a7fa7eee7594245d97c3edd2538702c634558c8626756b3735",
        "out/transitions_model.csv": "5e6e21e5822a5cfdff48314a77aa3fe5f71a04f6fea860190d266b8afdbceda9",
    },
    "spatial": {
        "inputs/series.planar": "4f761d2bd9083289d247d86aec190f6870a515c2196a1fd6c077b9653e5f53b9",
        "inputs/tessellation.json": "37a79a3c23142024508db0dbc99ad6103dbe2110c8fa2b352f1b099541041ae4",
        "out/evaluate.manifest.json": "a506f3473d060e614a861cb3b8db7dc3f5c559d115eda8ea28b01fc5e7c0335f",
        "out/fit_model11.manifest.json": "2b6d2649dc26ab45dce7b868a437d8ea8d87b5759b385573c99042f982f9afad",
        "out/model11.chain": "ca2b77b0fb4c863cde8033754ba0cc60b4ea4c3d16e113f854e2a5ebc264172b",
        "out/pipeline.manifest.json": "7744f4672cb6d5f51e46116ba1d752ee0456a1a649d96de51d64cf02bd0bcebf",
        "out/predict.manifest.json": "ae9f1a6a9ae09dba537bdbd031a7609ce00f5327c2b226d855a22ee5eeaa56b4",
        "out/predictions.csv": "b7b096d1bbf682ce62c650b5285eba9a68f217e07cdb683de7216e9fc6a76f7f",
        "out/report.txt": "6e02bfc653ed4fa02aaf22b6428a51006dfb62901961a38b9c1944c4a83f5751",
        "out/scores.json": "cff2eb85b3805642e9f882299e62fc2756cb2b9632b9e9954c0deefa079a8156",
    },
}


def run_pipeline(workload: str, root: Path, prelude: str = "") -> str:
    """Standard output of one run into `root`, with the code `prelude` run
    first in its process."""
    env = dict(src_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", prelude + RUN, str(PERFBENCH), workload,
                           str(root)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def output_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, keyed by its path under `root`."""
    hashes = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "config.json"):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            del manifest["wall_time_s"], manifest["written_at"]
            data = json.dumps(manifest, sort_keys=True).replace(str(root), "").encode()
        hashes[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return hashes


@pytest.mark.parametrize("workload", ["fields", "ladder", "spatial"])
def test_pipeline_bytes_are_pinned(workload, tmp_path):
    run_pipeline(workload, tmp_path)
    assert output_hashes(tmp_path) == PINS[workload]
