import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fpsynth.nets as nets
from fpsynth.dataset import Coordinate, FingerprintDataset, NormalizationParams


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # expose per-phase reports so the acceptance suite can print PASS/FAIL lines
    outcome = yield
    rep = outcome.get_result()
    setattr(item, "rep_" + rep.when, rep)


@pytest.fixture
def blas_threads():
    """The process's BLAS thread count getter, with the count set to 2 for the test."""
    api = nets._openblas_threads()
    if not api:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count API here")
    get, set_ = api
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


@pytest.fixture
def params():
    return NormalizationParams()


@pytest.fixture
def tiny_dataset(params):
    """Four locations on a unit square, two samples each, 3 APs."""
    rng = np.random.default_rng(123)
    locs = tuple(Coordinate(float(x), float(y)) for x in (0.0, 1.0) for y in (0.0, 1.0))
    rss = [np.where(rng.random(3) < 0.2, 0.0, rng.uniform(0.1, 1.0, 3)) for _ in range(8)]
    return FingerprintDataset(np.array(rss), np.repeat(np.arange(4), 2), locs, params)


TINY_CONFIG = """
# desk-scale configuration used by the CLI tests
synth.grid_nx = 5
synth.grid_ny = 5
synth.width_m = 20
synth.height_m = 20
synth.ap_count = 6
synth.samples_per_location = 3
synth.test_samples_per_location = 2
split.unseen_fraction = 0.4
augment.replicas_per_sample = 1
augmenter.samples_per_unseen = 2
diffusion.T = 20
diffusion.epochs = 3
diffusion.batch_size = 32
diffusion.hidden = 16,8,16
diffusion.cond_freqs = 2
diffusion.time_dim = 4
localizer.k = 3
seed = 5
"""


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)
