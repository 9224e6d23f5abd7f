"""Frozen chain bytes of short fixed-seed fits.

Each case fits one model to a fixed simulated series and pins the sha256 of
the file `save_chain` writes. The pins hold the sampler to its exact random
number order and float arithmetic, independently of the sampler classes the
oracle tests derive from it, on the random walk (model0, no columns) and on
each form of X'X: one dense block (model1), dense with intercept columns
(model5) and blocked (model9), and with the spatial intercept (model11). A
pin changes only in a change that alters chain bytes on purpose and names
that change, with the outputs it moves, in CHANGES.md.
"""

import hashlib

import pytest

from stvar.mcmc import McmcConfig, run_chain, save_chain
from stvar.models import KnotGrid, ModelSpec
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

TESS4 = default_tessellation(4)
SPATIAL_SPEC = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=4, n_y=4))

PINS = {
    ("model0", 3):
        "712cc00147c56c7f10e6368c98c64232442e60db6cb899bd4338a213e62ba995",
    ("model0", 7):
        "17ec60537aae0e905f8c348264ec335bd7d18942fec66dace8682a01ea46857e",
    ("model1", 3):
        "a8c1cb008cb6023af975e0191c327024baa388f6c9b66e1bd9da9d9d446e555a",
    ("model1", 7):
        "fdbf5affb7a3a45413cc53946a1489cf07f1581c1064c2d1b0236dcd8b24e141",
    ("model5", 3):
        "f57be696714a50b456b35c3077da40d0d0ce348ae0337a41e38c8129789d8abd",
    ("model5", 7):
        "24ac0fcf645ce91c6ad9786bf71d2f473dd15a92e3ec49cb1b9f3482db8204e3",
    ("model9", 3):
        "4a16cf6ca65568c950367b7146b673510addb0c86281f3ac82cb08f91d633f14",
    ("model9", 7):
        "1b9a4b8e947891aabb45f679360e1536b3572e8ed3c32a51bf0afdc94ee7d6ea",
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
