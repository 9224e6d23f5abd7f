"""The sampler's inverse-Wishart and truncated-normal draws against
scipy.stats, bit for bit.

`mcmc._invwishart` and `mcmc._truncnorm_positive` take the random numbers of
scipy.stats' `invwishart.rvs` and `truncnorm.rvs`, in the same order and
through the same arithmetic, so chain bytes do not depend on whether
scipy.stats is imported. Every case here requires equal draws and an equal
generator state after each draw; the frozen hex values pin the chain bytes
even if a later scipy.stats changes its own algorithm.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import invwishart, truncnorm

from conftest import src_env
from stvar.mcmc import _invwishart, _truncnorm_positive

SEEDS = range(540)  # 60 seeds for each of the 9 cases of either draw

SCALES = [
    np.array([[2.0, 0.3], [0.3, 1.0]]),
    np.array([[4.0e6, -60.0], [-60.0, 2.5e-3]]),
    np.array([[1.0, 1.0 - 1e-10], [1.0 - 1e-10, 1.0]]),  # near-singular
]
DFS = [2, 3, 7300]

# truncation points a = -mean / sd: both inverse-cdf branches, their
# boundary a = 0, and far tails where a naive cdf difference underflows
TRUNCATIONS = [-40.0, -30.0, -2.5, -0.3, 0.0, 0.3, 2.5, 30.0, 40.0]


def test_invwishart_matches_scipy():
    for seed in SEEDS:
        df, scale = DFS[seed % 3], SCALES[seed // 3 % 3]
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = invwishart.rvs(df=df, scale=scale, random_state=ref)
        got = _invwishart(ours, df, scale)
        assert np.array_equal(got, want), (seed, df, scale, got, want)
        assert ours.bit_generator.state == ref.bit_generator.state, seed


def test_truncnorm_matches_scipy():
    meta = np.random.default_rng(1)
    for seed in SEEDS:
        a = TRUNCATIONS[seed % len(TRUNCATIONS)]
        sd = float(10.0 ** meta.uniform(-3, 3))
        mean = -a * sd
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = truncnorm.rvs((0.0 - mean) / sd, np.inf, loc=mean, scale=sd, random_state=ref)
        got = _truncnorm_positive(ours, mean, sd)
        assert got == want, (seed, mean, sd, float(got).hex(), float(want).hex())
        assert got >= 0.0
        assert ours.bit_generator.state == ref.bit_generator.state, seed


@pytest.mark.parametrize("seed, df, hexes", [
    (11, 2, ["0x1.00bdb705ac7adp+2", "0x1.2779d53943bcfp-2",
             "0x1.2779d53943bcfp-2", "0x1.4e4f6876d07ccp+3"]),
    (12, 7300, ["0x1.1a6d684f152bcp-12", "0x1.53096f90cfe84p-15",
                "0x1.53096f90cfe84p-15", "0x1.1bd5c92f5da64p-13"]),
])
def test_invwishart_frozen(seed, df, hexes):
    draw = _invwishart(np.random.default_rng(seed), df, SCALES[0])
    assert [float(v).hex() for v in draw.ravel()] == hexes


@pytest.mark.parametrize("seed, mean, sd, hexed", [
    (21, 0.8, 0.5, "0x1.356904d4c965ap+0"),
    (22, 0.0, 2.0, "0x1.e80795b474ef7p-1"),
    (23, -1.5, 0.5, "0x1.6013ad1d03ce0p-3"),
    (24, -35.0, 1.0, "0x1.76f28c4f82000p-7"),
    (25, 35.0, 1.0, "0x1.1011697e92c6cp+5"),
])
def test_truncnorm_frozen(seed, mean, sd, hexed):
    assert float(_truncnorm_positive(np.random.default_rng(seed), mean, sd)).hex() == hexed


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, stvar, stvar.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
