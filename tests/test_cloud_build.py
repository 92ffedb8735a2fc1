"""A band cloud has the bits of the build that drew its band and sorted it
into a second array (``util.two_copy_cloud``), and ``verify`` reads the
averages of ``avg``.
"""

import numpy as np
import pytest

from leafavg.averaging import _averages, average, cycle_probe
from leafavg.cli import load_config
from leafavg.models import LevelSetSampler
from leafavg.polynomials import parse_polynomial

from test_golden_exact import BUNDLED, FLOAT_CONFIGS
from util import two_copy_cloud

SEEDS = (0, 7)
COUNT = 40_000


def _model(name):
    return load_config(BUNDLED / f"{name}.json").build_model()


def _assert_same_cloud(cloud, reference):
    for got, want in zip((cloud.points, cloud.level_values, cloud.grad_norms), reference):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_band_cloud_matches_the_two_copy_build(name):
    model = _model(name)
    for seed in SEEDS:
        for level in (-0.45, 0.3):
            cloud = LevelSetSampler(model, seed, COUNT, level=level)
            assert len(cloud.level_values) > 0
            _assert_same_cloud(cloud, two_copy_cloud(model, seed, COUNT, level))


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_verify_averages_keep_the_bits_of_average(name):
    model = _model(name)
    f = parse_polynomial("x1^2 - 2 * x1 * x2", model.ambient_dim, model.mode)
    certificate = average(model, f, seed=5)
    verify = _averages(model, f, cycle_probe(f))
    for got, want in ((verify.avg, certificate.average_poly),
                      (verify.avg_again, model.reynolds(certificate.average_poly)),
                      (verify.lap_avg, model.reynolds(f.laplacian()))):
        assert got.terms == want.terms
        assert all(np.float64(a).tobytes() == np.float64(b).tobytes()
                   for a, b in zip(got.terms.values(), want.terms.values()))
