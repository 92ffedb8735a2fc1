"""The isoparametric level law and normal-geodesic transport that draw a
level-restricted sample cloud: on every bundled isoparametric config and on
two quadrics with unequal multiplicities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from leafavg import IsoparametricModel, NotCartanMunzner, parse_polynomial, sphere_inner, sphere_mean
from leafavg import models
from leafavg.cli import _CONFIG_DIR, load_config
from leafavg.models import LevelLaw, LevelSetSampler, sample_sphere_many

from util import random_homogeneous

# name -> multiplicities (m1, m2) of (1 - F)/2 ~ Beta((m1 + 1)/2, (m2 + 1)/2)
MULTIPLICITIES = {
    "iso_g1": (1, 1),
    "iso_g2": (1, 1),
    "iso_g3": (0, 0),
    "cartan_so3_g3": (1, 1),
    "quadric_r3": (0, 1),  # (a, b) = (1/2, 1)
    "quadric_r5": (3, 0),  # (a, b) = (2, 1/2)
}
QUADRICS = {
    "quadric_r3": ("x1^2 + x2^2 - x3^2", 3),
    "quadric_r5": ("x1^2 - x2^2 - x3^2 - x4^2 - x5^2", 5),
}


@pytest.fixture(scope="module", params=sorted(MULTIPLICITIES))
def model(request):
    name = request.param
    if name in QUADRICS:
        text, dim = QUADRICS[name]
        return IsoparametricModel(parse_polynomial(text, dim), 2, name=name)
    model = load_config(_CONFIG_DIR / f"{name}.json").build_model()
    model.name = name
    return model


def test_level_law_multiplicities(model):
    law = model.level_law
    assert (law.m1, law.m2) == MULTIPLICITIES[model.name]
    assert model.level_law is law  # solved once per model
    assert law.band_probability(-1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert law.band_probability(-3.0, 3.0) == law.band_probability(-1.0, 1.0)
    assert law.band_probability(1.5, 2.0) == law.band_probability(0.3, 0.3) == 0.0


def test_level_law_takes_the_second_moment_as_a_pairing(model, monkeypatch):
    # E[F^2] as sphere_inner(F, F) solves the law that sphere_mean(F * F) does
    law = LevelLaw.of(model.F, model.g)
    monkeypatch.setattr(models, "sphere_inner", lambda p, q: sphere_mean(p * q))
    reference = LevelLaw.of(model.F, model.g)
    assert (law.m1, law.m2) == (reference.m1, reference.m2)


def test_level_law_moments_are_the_sphere_means_of_powers(model):
    # E[F^k] from the Beta law equals the sphere mean of F^k: exactly for an
    # exact F, to rounding for cartan_so3_g3's float one
    for k in range(5):
        expected = sphere_mean(model.F ** k)
        if model.mode == "exact":
            assert model.level_law.moment(k) == expected, k
        else:
            assert float(model.level_law.moment(k)) == pytest.approx(expected, abs=1e-12), k


@pytest.mark.parametrize("seed", range(4))
def test_sphere_inner_of_a_quartic_with_itself_is_the_mean_of_its_square(seed):
    F = random_homogeneous(5, 4, np.random.default_rng(seed), n_terms=12).scale(Fraction(2, 7))
    assert type(sphere_inner(F, F)) is Fraction
    assert sphere_inner(F, F) == sphere_mean(F * F)


def test_band_probability_matches_uniform_points(model):
    # in-band fraction of 10^6 uniform points within 4 binomial SE, and the
    # mean of the levels drawn in the band within 4 SE of theirs; the law
    # with its multiplicities swapped must miss where they differ
    n, h = 10**6, model.h
    rng = np.random.default_rng(5)
    levels = model.F.eval_many(sample_sphere_many(n, model.ambient_dim, rng))
    law = model.level_law
    swapped = LevelLaw(law.m2, law.m1)
    misses = []
    for level in (-0.6, 0.5):
        inside = levels[np.abs(levels - level) <= h]
        fraction = len(inside) / n
        p = law.band_probability(level - h, level + h)
        assert abs(fraction - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), level
        drawn = law.draw(len(inside), level - h, level + h, rng)
        se = math.sqrt((inside.var() + drawn.var()) / len(inside))
        assert abs(drawn.mean() - inside.mean()) <= 4.0 * se, level
        q = swapped.band_probability(level - h, level + h)
        misses.append(abs(fraction - q) > 4.0 * math.sqrt(q * (1.0 - q) / n))
    assert any(misses) == (law.m1 != law.m2)


def test_transport_lands_on_the_sphere_at_its_levels(model):
    rng = np.random.default_rng(9)
    law = model.level_law
    count = 50_000
    for lo, hi in ((-1.0, 1.0), (0.93, 1.0), (-1.0, -0.93), (0.2, 0.3)):
        targets = law.draw(count, lo, hi, rng)
        assert targets.min() >= lo - 1e-15 and targets.max() <= hi + 1e-15
        starts = sample_sphere_many(count, model.ambient_dim, rng)
        points = model.transport(starts, targets)
        assert np.all(np.isfinite(points))
        assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-11
        assert np.max(np.abs(model.F.eval_many(points) - targets)) <= 1e-11
    # the focal levels themselves, and starts right next to a focal manifold
    starts = sample_sphere_many(4, model.ambient_dim, rng)
    focal = model.transport(starts, np.array([1.0, -1.0, 1.0, -1.0]))
    assert np.max(np.abs(model.F.eval_many(focal) - [1.0, -1.0, 1.0, -1.0])) <= 1e-11
    near = focal + 1e-9 * starts
    near = model.transport(near / np.linalg.norm(near, axis=1)[:, None], np.array([0.0, 0.5, -0.5, 0.1]))
    assert np.max(np.abs(model.F.eval_many(near) - [0.0, 0.5, -0.5, 0.1])) <= 1e-11


def test_band_that_reaches_a_focal_level_has_no_nan(model):
    h = model.h
    for level in (1.0 - 0.5 * h, -1.0 + 0.5 * h, 1.0, -1.0):
        cloud = LevelSetSampler(model, 3, 200_000, level=level)
        assert len(cloud.points) > 0
        for array in (cloud.points, cloud.level_values, cloud.grad_norms):
            assert np.all(np.isfinite(array)), level
        assert np.all(np.abs(cloud.level_values) <= 1.0 + 1e-12)


def test_transport_of_a_focal_start_is_not_finite():
    model = IsoparametricModel(parse_polynomial("x1^2 + x2^2 - x3^2 - x4^2", 4), 2)
    points = model.transport(np.array([[0.0, 0.0, 1.0, 0.0]]), np.array([0.3]))
    assert not np.isfinite(points[0, 0])


def test_level_law_refuses_what_is_not_cartan_munzner():
    # x1^2 on S^3: 2a = 21/2 is not an integer
    with pytest.raises(NotCartanMunzner, match="level law"):
        LevelLaw.of(parse_polynomial("x1^2", 4), 2)
    # the law of a Clifford quadric, but multiplicities that do not fit g = 4
    with pytest.raises(NotCartanMunzner, match="level law"):
        LevelLaw.of(parse_polynomial("x1^2 + x2^2 - x3^2 - x4^2", 4), 4)
