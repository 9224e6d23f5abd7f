"""Frozen bytes of simulated ladder trajectories.

Each case draws one trajectory from the deterministic truth of a ladder alias
on a four-cell tessellation, over a dated span that crosses two Decembers, and
pins the sha256 of the file `save_planar` writes. The pins hold
`simulate_var` to its exact random number order, block labeling and float
arithmetic: a December day takes the following year's winter block where
seasons and years cross. The command pins do the same for `stvar simulate` on
its default twelve-cell tessellation, and also pin the truth file it writes,
so the spectral radii there keep their bits. A pin changes only in a change
that alters simulated bytes on purpose and names that change in CHANGES.md.
"""

import hashlib

import pytest

from stvar.cli import dispatch
from stvar.projection import save_planar
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

TESS4 = default_tessellation(4)
START, N_DAYS = "1999-11-01", 500  # through Dec 1999 and Dec 2000 to Mar 2001

PINS = {
    ("model0", 3):
        "97826f61e3a07ae43af714dfee6bb313e7bd8290550c29e21061bd3a059160fc",
    ("model0", 7):
        "b761232c4a04190992fa7092e02474a092851168ddaf0eb54bdcfaf392d2db9c",
    ("model1", 3):
        "4d65ca844e4ac4b85718e18edc2806be83c26fca70661f05e4d4e0406ca66bb0",
    ("model1", 7):
        "305cf19fcb7ae4d6ca5183358d9ddaea55b18949f2f295160321ac3acedbb5d9",
    ("model2", 3):
        "38347756ddb31d609a4619d6fb1a190d944863a9302075887eba312a345eae15",
    ("model2", 7):
        "5c3f7886bf49496393eb2af2ae9b657a27d1bf2eb435c3e8d917d2cf0d55b5aa",
    ("model3", 3):
        "f8714510841e94de712916eb71ba196f87439c9baf50446ec931650135379019",
    ("model3", 7):
        "b76318c1bf2815bd2ae23e5ad86b07a0e059cb29a3e7c1376e18c8052e84c4a2",
    ("model4", 3):
        "892281ebf7296730fc8b276482df9185cded33e62b388a7873ac11751b080ec8",
    ("model4", 7):
        "5da57cd36ba150e03da0114ddffa81a0bb777d5adf212a3cafaa37ea4bef7467",
    ("model5", 3):
        "9dc6ee660adbbabfc6d3fd9ea7d85a0a4f98383a74544589e6d362bf65a9bfd6",
    ("model5", 7):
        "5f1ac5f4f29aa27afccc7742688cbf4ae59f09d0152def7e961437b261eaf6b9",
    ("model6", 3):
        "a37ef5672ba6c0ec9c57c79466f5de05a9bff70c25fc35367b120765b161686d",
    ("model6", 7):
        "c1f7e6c456c28b681a04fd958aa53d6e4dd0abf4fcd1f390b5990eedd04b5d0e",
    ("model7", 3):
        "1e8ff4a8d25c1f42190ef77c4c862064839d5f353862aed044d388e12032f153",
    ("model7", 7):
        "736ab0465ed572175e0053821486a878113a4b3b6e67bab1af39f13e336f89ac",
    ("model8", 3):
        "c2f74e23e1c596b9a422eb58b44f54cf5f4d03a1ae8406f4885c7dabe658cc09",
    ("model8", 7):
        "ca2acdc014ec8e9a827bc80eee51e9a645ecfb0d561b62eeedc70598e98051b0",
    ("model9", 3):
        "88b1f5b2945bf69c4b59e784765846406a4750ef71a19fbd56f967eaeeba5ca2",
    ("model9", 7):
        "d223e51dfd11f2b56d72c3051e8f92c7e72143f1eb706c3d5dccf6728f5d91aa",
    ("model10", 3):
        "698cadcf57f9b2a275da20164093de66617e3f3cabd0de9b3da6949aa6801e1d",
    ("model10", 7):
        "7d3f01efb2b102320d613a963a13e98626af3d0a3ede60581862b8d998c38a16",
    ("model11", 3):
        "1f269f7607ae06bacf4f60101d6fdbba61e22486a3bf2ccefb6ae56bc84fcac9",
    ("model11", 7):
        "3c19e9fc5e2f8532802e5586fe623039ed8c3db21acd8055684ec62e9f783e78",
}


@pytest.mark.parametrize("model, seed", list(PINS), ids=lambda v: str(v))
def test_simulated_bytes_are_pinned(model, seed, tmp_path):
    truth = ladder_truth(model, tess=TESS4, start_date=START, n_days=N_DAYS)
    series = simulate_var(truth, N_DAYS, tess=TESS4, start_date=START, seed=seed)
    save_planar(series, tmp_path / "a.planar")
    assert hashlib.sha256((tmp_path / "a.planar").read_bytes()).hexdigest() == PINS[model, seed]


# (truth.json, series.planar) of `stvar simulate --seed 3` over the same span
COMMAND_PINS = {
    "model0": (
        "56ace4659b780f51c69455025bd6d65a44750c3a6ffbbc2780178e4801132bda",
        "af4ef6858a92cd4247afe866a5659207c64151ea5d91b32d1f1d53abf3d55dbe",
    ),
    "model1": (
        "c32e9e82128f1bdf2980af40fe4ee18d97a736b6143a23d36f0cfd20ab870610",
        "5493559b6f73eb21d4a1ee98638bae0beb8ca2f75fea0bdb4955dc8b2ee2b16b",
    ),
    "model2": (
        "4b0bca01562edfdc65cdee0c0fea5db2ae46009ddbfb9a0a20e52a88988a3caf",
        "cb39bd7ff90795eed5819e33e39280bc62462f21ec579c28f93ac52ae9548579",
    ),
    "model3": (
        "137a59c565e363ceb2343c211c59b06358f9e763c8a23cbe7057f71c8f2a3cc4",
        "86a8a0f7a8dbef9885b0b9726f8f0624938e8d496dc3412d3b8c8018b5983642",
    ),
    "model4": (
        "9db66a1ceaa336ee23aa62e06201e43ebecd081cb53269c93b6bd9cb59af8c5e",
        "2542f173a62326935cbee583f386b11a73c231e32f680dab8610f76af6835282",
    ),
    "model5": (
        "3d4d6163855af2729f1f2048ca1659aaffeda549e3965abe6af9930b1740c80d",
        "8c949561566bc8c67669628f9310c2e7e1e6166f09f9c9d7d5969f9c36bda859",
    ),
    "model6": (
        "c309d37c65f5f2304b9dade586e20861820215b5562102e682e4babc44a0e5f4",
        "042b54abd26acc69eefb2d9d7f651fe3af1e81dd826e1f347d5a5ed8f0097f5a",
    ),
    "model7": (
        "83bc0dce48f02bbc8853ff7eeb6559917c0349b42ab9d42e78e7fd3480472aa8",
        "689c5eb0825e333b3f48ac99d95969e3b4bb4029f87dcffc26d69b650e628e0a",
    ),
    "model8": (
        "b5d71fa19c4db380575e9f7c43d028fc2b54c9d28bf6e8ae89bd947e90725681",
        "3dd276968a03f409c96f14954c6db86de7a50608956e09eddac1bc9673a50634",
    ),
    "model9": (
        "ac2581f0763c86b93250992c6365a70ed76ad9ed13112148c524a84b67330604",
        "4e3dbe31855c121330ba77b01d768b3f6c57defb6c04f17fb8009fa39756398e",
    ),
    "model10": (
        "f73f45de1e908675f9898447e525b7e83b803f45167cab86b8a2de12859390c6",
        "f54302b353ef6b98d88442fd9b96a0c267a0e1ea4344c4bbd28c0b7b2cb8eb4c",
    ),
    "model11": (
        "a8b752b93f6279bb1826c060ba42ab40f32b46f3c750290d3b1f9114bc91fb5b",
        "692db1cc2315278c49eba3e068afc12b58ab72f5446519d33d4e489f8ab2e4d5",
    ),
}


@pytest.mark.parametrize("model", list(COMMAND_PINS))
def test_simulate_command_bytes_are_pinned(model, tmp_path):
    code = dispatch(["simulate", "--model", model, "--days", str(N_DAYS), "--start-date", START,
                     "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("truth.json", "series.planar"))
    assert digests == COMMAND_PINS[model]
