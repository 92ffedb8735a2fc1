"""A sample cloud is built inside the array it keeps, with the bits of the
build that drew it whole and sorted it into a second cloud-sized array
(``util.two_copy_cloud``), in a fraction of that build's peak memory.
"""

import tracemalloc

import numpy as np
import pytest

from leafavg.averaging import _averages, cycle_probe
from leafavg.cli import load_config
from leafavg.models import LevelSetSampler
from leafavg.polynomials import _EVAL_BLOCK, parse_polynomial

from test_golden_exact import BUNDLED, FLOAT_CONFIGS
from util import two_copy_cloud

SEEDS = (0, 7, 2 ** 40 + 3)


def _model(name):
    return load_config(BUNDLED / f"{name}.json").build_model()


def _assert_same_cloud(cloud, reference):
    for got, want in zip((cloud.points, cloud.level_values, cloud.grad_norms), reference):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_full_cloud_matches_the_two_copy_build(name):
    model = _model(name)
    # one row, one block less a row, one block, one block and a row, the config's size
    counts = (1, _EVAL_BLOCK - 1, _EVAL_BLOCK, _EVAL_BLOCK + 1, model.mc_samples)
    for seed in SEEDS:
        for count in counts:
            _assert_same_cloud(LevelSetSampler(model, seed, count), two_copy_cloud(model, seed, count))


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_band_cloud_matches_the_two_copy_build(name):
    model = _model(name)
    for seed in SEEDS[:2]:
        for level in (-0.45, 0.3):
            cloud = LevelSetSampler(model, seed, model.mc_samples, level=level)
            assert len(cloud.level_values) > 0
            _assert_same_cloud(cloud, two_copy_cloud(model, seed, model.mc_samples, level=level))


def test_cloud_build_peaks_near_the_bytes_it_keeps():
    # the two-copy build peaked at 1.86 times the kept bytes on this cloud
    model = _model("cartan_so3_g3")
    LevelSetSampler(model, 0, 16)  # the polynomial's float tables, built once
    tracemalloc.start()
    try:
        cloud = LevelSetSampler(model, 1, model.mc_samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = cloud.points.base.nbytes + cloud.level_values.nbytes + cloud.grad_norms.nbytes
    assert cloud.points.base.shape == (model.ambient_dim, model.mc_samples)
    assert peak < 1.4 * kept, peak / kept


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_verify_averages_keep_the_bits_of_average(name):
    model = _model(name)
    f = parse_polynomial("x1^2 - 2 * x1 * x2", model.ambient_dim)
    certificate = _averages(model, f, cycle_probe(f), seed=5)
    verify = _averages(model, f, cycle_probe(f), seed=5, fit_probe=False)
    assert certificate.leaf_constancy is not None and verify.leaf_constancy is None
    assert verify.probe_avg is None
    for got, want in ((verify.avg, certificate.avg), (verify.avg_again, certificate.avg_again),
                      (verify.lap_avg, certificate.lap_avg)):
        assert got.terms == want.terms
        assert all(np.float64(a).tobytes() == np.float64(b).tobytes()
                   for a, b in zip(got.terms.values(), want.terms.values()))
