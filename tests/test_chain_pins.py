"""Frozen chain bytes of short fixed-seed fits.

Each case fits one model to a fixed simulated series and pins the sha256 of
the file `save_chain` writes. The pins hold the sampler to its exact random
number order and float arithmetic, spatial intercept included, independently
of the sampler classes the oracle tests derive from it. A pin changes only in
a change that alters chain bytes on purpose and names that change, with the
outputs it moves, in CHANGES.md.
"""

import hashlib

import pytest

from stvar.mcmc import McmcConfig, run_chain, save_chain
from stvar.models import KnotGrid, ModelSpec
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

TESS4 = default_tessellation(4)
SPATIAL_SPEC = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=4, n_y=4))

PINS = {
    ("model1", 3):
        "e784ca3ecce85e875f7056a049e5b45e4ee36be1612e7dcc0e853a5bae24d720",
    ("model1", 7):
        "10366a5742dad9412425916da64264a223c28b603b6f5080b45059d3861918fa",
    ("model9", 3):
        "1a62284f9a094ca6d90f08d5d91d2bb326f6bde8066f9b032d79a7230d796275",
    ("model9", 7):
        "d674a1c71a15f0bc89ed8e2d276cc36c8e42414df0b6bd84ca2c396490db855c",
    ("model11", 3):
        "3bf040e20d81930c2d8c0acd9daad5c800dfa42a40b9102fea66c471455b0022",
    ("model11", 7):
        "5990f23e54a90bec82ccc7e35e289aea9709c146c4aea40bd0a7e873a455a780",
}


@pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
@pytest.mark.parametrize("model, seed", list(PINS), ids=lambda v: str(v))
def test_chain_bytes_are_pinned(model, seed, tmp_path):
    truth = ladder_truth(model, tess=TESS4, start_date="1990-01-01", n_days=400)
    series = simulate_var(truth, 400, tess=TESS4, start_date="1990-01-01", seed=seed)
    spec = SPATIAL_SPEC if model == "model11" else model
    tess = None if model == "model11" else TESS4
    chain = run_chain(series, spec, McmcConfig(n_iter=350, burn_in=100, seed=seed), tess=tess)
    save_chain(chain, tmp_path / "a.chain")
    assert hashlib.sha256((tmp_path / "a.chain").read_bytes()).hexdigest() == PINS[model, seed]
