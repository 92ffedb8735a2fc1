import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from leafavg import (
    EXACT,
    FLOAT,
    BasisDeficient,
    IdentityViolation,
    Polynomial,
    average,
    average_structured,
    parse_polynomial,
    sphere_mean,
    sphere_norm,
    verify_operator_identities,
)
from leafavg import averaging
from leafavg.averaging import (
    cycle_probe,
    generator_products,
    weighted_exponent_patterns,
)
from leafavg.basic_ring import GeneratorSet
from leafavg.cli import _CONFIG_DIR, load_config
from leafavg.cli import main as cli_main
from util import euler_apply, random_homogeneous


def P(text, dim, mode=EXACT):
    return parse_polynomial(text, dim, mode)


def make_gens(model_dim, texts, mode=EXACT):
    polys = tuple(P(t, model_dim, mode) for t in texts)
    return GeneratorSet(
        ambient_dim=model_dim,
        mode=mode,
        generators=polys,
        degrees=tuple(p.homogeneous_degree() for p in polys),
        degree_cap=max((p.homogeneous_degree() for p in polys), default=0),
        dims_by_degree={},
        provenance={"source": "test"},
    )


# -- helpers ---------------------------------------------------------------------


def test_weighted_exponent_patterns():
    assert weighted_exponent_patterns([2, 2], 4) == [(2, 0), (1, 1), (0, 2)]
    assert weighted_exponent_patterns([2, 3], 7) == [(2, 1)]
    assert weighted_exponent_patterns([2], 3) == []


def test_generator_products_empty_pattern_only_at_degree_zero():
    # the empty product is the constant 1: basic, and of degree 0 only
    gens = [P("x1^2 + x2^2", 2)]
    assert generator_products(gens, 0) == [((0,), P("1", 2))]
    assert generator_products([g.to_float() for g in gens], 0) == [((0,), P("1", 2).to_float())]
    assert generator_products([], 0) == []
    products = generator_products(gens, 4)
    assert len(products) == 1
    assert products[0][0] == (2,)


def test_cycle_probe_differs():
    f = P("x1^2", 3)
    probe = cycle_probe(f)
    assert probe == P("x2^2", 3)
    symmetric = P("x1^2 + x2^2 + x3^2", 3)
    assert cycle_probe(symmetric) != symmetric


# -- exact engine -----------------------------------------------------------------


def test_exact_engine_matches_reynolds(c4_model):
    f = P("x1^2", 2)
    cert = average(c4_model, f, seed=1)
    assert cert.engine == "exact"
    assert cert.average_poly == c4_model.reynolds(f)
    assert cert.exact


def test_exact_certificate_residuals_vanish(b3_model):
    rng = np.random.default_rng(3)
    f = random_homogeneous(3, 4, rng)
    cert = average(b3_model, f, seed=2)
    assert cert.max_residual() == 0.0
    assert cert.degree == 4


def test_average_requires_homogeneous(c4_model):
    with pytest.raises(ValueError):
        average(c4_model, P("x1^2 + x1", 2))


def test_linearity_exact(t2_model):
    rng = np.random.default_rng(9)
    f = random_homogeneous(4, 3, rng)
    g = random_homogeneous(4, 3, rng)
    combo = f.scale(3) + g.scale(-2)
    avg_combo = average(t2_model, combo, seed=0).average_poly
    avg_f = average(t2_model, f, seed=0).average_poly
    avg_g = average(t2_model, g, seed=0).average_poly
    assert avg_combo == avg_f.scale(3) + avg_g.scale(-2)


def test_positivity_at_points(b2_model):
    rng = np.random.default_rng(21)
    q = random_homogeneous(2, 2, rng)
    f = q * q  # non-negative everywhere
    avg = average(b2_model, f, seed=3).average_poly
    for _ in range(20):
        x = tuple(rng.normal(size=2))
        assert avg.eval(x) >= -1e-15


def test_basic_polynomial_is_fixed(t2_model):
    basic = P("x1^2 + x2^2", 4)
    cert = average(t2_model, basic, seed=4)
    assert cert.average_poly == basic
    assert float(sphere_mean(basic * basic) - sphere_mean(cert.average_poly ** 2)) == 0.0


def test_kernel_element_contracts(c4_model):
    # odd polynomial averages to zero; contraction is strict
    f = P("x1", 2)
    cert = average(c4_model, f, seed=5)
    assert cert.average_poly.is_zero
    assert float(sphere_mean(f * f)) > 0.0


def test_radial_derivation_commutes_with_averaging(b3_model, t2_model):
    # averaging a homogeneous f commutes with the radial derivation, and
    # both sides collapse to degree * [f]
    rng = np.random.default_rng(41)
    for model in (b3_model, t2_model):
        degree = int(rng.integers(1, 6))
        f = random_homogeneous(model.ambient_dim, degree, rng)
        avg = model.reynolds(f)
        assert model.reynolds(euler_apply(f)) == euler_apply(avg)
        assert euler_apply(avg) == avg.scale(degree)


def test_cone_dilation_scaling_of_average(b3_model):
    from fractions import Fraction
    rng = np.random.default_rng(43)
    f = random_homogeneous(3, 3, rng)
    avg = b3_model.reynolds(f)
    x = (Fraction(1, 2), Fraction(2, 3), Fraction(-3, 7))
    r = Fraction(5, 4)
    assert avg.eval(tuple(r * c for c in x)) == r ** 3 * avg.eval(x)


# -- level-law engine ------------------------------------------------------------


def test_fit_recovers_quadric_average(iso_g2_model):
    # the average is exact, and the transported plain means agree with it
    f = P("x1^2", 4)
    cert = average(iso_g2_model, f, seed=11)
    assert cert.engine == "level_law"
    assert cert.average_poly == P("1/2 * x1^2 + 1/2 * x2^2", 4)
    assert cert.fit["passed"] and len(cert.fit["z_scores"]) == len(averaging.TRANSPORT_LEVELS)
    assert cert.seed == 11


def test_fit_fixes_basic_input(iso_g2_model):
    cert = average(iso_g2_model, iso_g2_model.F, seed=12)
    assert cert.average_poly == iso_g2_model.F


def test_fit_certificate_residuals_reasonable(iso_g2_model):
    cert = average(iso_g2_model, P("x1^2", 4), seed=13)
    assert cert.exact and cert.max_residual() == 0.0


def test_level_law_average_matches_the_sphere_projection(iso_g2_model, iso_g3_model):
    # the level-law system gives the sphere-orthogonal projection onto the
    # span of slice_rows, the exact projection a closed-form slice gives
    from leafavg.basic_ring import gram_schmidt_polys, project_residual
    rng = np.random.default_rng(17)
    for model in (iso_g2_model, iso_g3_model):
        for degree in range(1, 7):
            f = random_homogeneous(model.ambient_dim, degree, rng)
            rows = [Polynomial(model.ambient_dim, row) for row in model.slice_rows(degree)]
            expected = f - project_residual(f, *gram_schmidt_polys(rows)) if rows else f.scale(0)
            assert model.reynolds(f) == expected


def test_level_law_average_is_in_the_scalar_mode_of_f(iso_g2_model):
    f = P("x1^2 * x3^2 + x2 * x4^3", 4)
    exact = iso_g2_model.reynolds(f)
    floats = iso_g2_model.reynolds(f.to_float())
    assert exact.mode == EXACT and floats.mode == FLOAT
    assert sphere_norm(floats - exact.to_float()) < 1e-15


def test_transported_means_flag_a_slice_without_F(iso_g2_model, monkeypatch):
    # without F the slice holds r^2 alone, whose average passes every
    # identity and every leaf-mate check; only the plain means see it
    from leafavg import IsoparametricModel
    good = average(iso_g2_model, P("x1^2", 4), seed=7)
    assert max(map(abs, good.fit["z_scores"])) <= averaging.Z_LIMIT
    rows = IsoparametricModel._slice
    monkeypatch.setattr(IsoparametricModel, "_slice", lambda self, d, mode: rows(self, d, mode)[:1])
    bad = average(iso_g2_model, P("x1^2", 4), seed=7)
    assert bad.max_residual() == 0.0
    assert not bad.fit["passed"] and max(map(abs, bad.fit["z_scores"])) > 100


def test_leaf_constancy_without_symmetry_is_measured(iso_g2_model, monkeypatch):
    from leafavg import IsoparametricModel
    model = IsoparametricModel(iso_g2_model.F, 2)
    cert = average(model, P("x1^2", 4), seed=8)
    assert 0.0 <= cert.residuals["leaf_constancy"] < 1e-12
    # an average that is not constant on the leaves shows in the same number
    monkeypatch.setattr(IsoparametricModel, "reynolds", lambda self, f: f)
    assert average(model, P("x1^2", 4), seed=8).residuals["leaf_constancy"] > 0.1


def test_structured_fit_coefficients(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"])
    res = average_structured(iso_g2_model, P("x1^2", 4), gens)
    assert res.patterns == [(1, 0), (0, 1)]
    assert res.coefficients == [Fraction(1, 4), Fraction(1, 4)]
    assert res.residual == 0.0


def test_structured_fit_of_algebra_element(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"], FLOAT)
    f = (iso_g2_model.F ** 3).to_float()
    res = average_structured(iso_g2_model, f, gens)
    coeff = dict(zip(res.patterns, res.coefficients))
    assert abs(coeff[(0, 3)] - 1.0) < 1e-12
    for pattern, value in coeff.items():
        if pattern != (0, 3):
            assert abs(value) < 1e-12


def test_structured_fit_detects_missing_generator(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2"])
    with pytest.raises(BasisDeficient) as info:
        average_structured(iso_g2_model, P("x1^2", 4), gens)
    assert info.value.residual > 1e-2


def test_structured_fit_no_products_at_degree(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2"])
    with pytest.raises(BasisDeficient):
        average_structured(iso_g2_model, P("x1^2 * x2", 4).scale(1), gens)


def test_structured_fit_skips_dependent_products(t2_model):
    # x1^2 + x2^2 twice: its square, its product with the copy and the copy's
    # square are one polynomial; exact and float systems keep one of them
    for mode in (EXACT, FLOAT):
        gens = make_gens(4, ["x1^2 + x2^2", "x1^2 + x2^2", "x3^2 + x4^2"], mode)
        f = P("x1^4 + 2 * x3^2 * x4^2", 4, mode)
        res = average_structured(t2_model, f.to_exact(), gens)
        assert res.residual <= 1e-14
        assert sphere_norm(res.polynomial.to_float() - t2_model.reynolds(f.to_exact()).to_float()) < 1e-14


def test_restriction_compatibility(iso_g2_model, t2_model):
    # averaging then restricting to the sphere equals the sphere-level leaf
    # average: compare MC estimates at sphere points with the cone-level
    # polynomial produced by the exact engine
    f = P("x1^2 * x2^2", 4)
    cone_avg = t2_model.reynolds(f)
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 5:
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        if abs(iso_g2_model.level_of(p)) > 0.8:
            continue
        est, se = iso_g2_model.leaf_average_mc(f, p, rng_seed=checked, n=200_000)
        assert abs(est - float(cone_avg.eval([float(x) for x in p]))) <= 4 * se
        checked += 1


# -- operator identity reports -----------------------------------------------------


def test_identities_exact_models(b3_model, t2_model, c4_model):
    rng = np.random.default_rng(29)
    for model in (b3_model, t2_model, c4_model):
        f = random_homogeneous(model.ambient_dim, 3, rng)
        g = random_homogeneous(model.ambient_dim, 2, rng)
        report = verify_operator_identities(model, f, g)
        assert report.passed
        assert set(report.residuals) == {
            "idempotence", "selfadjoint", "contraction", "module", "laplacian"
        }
        assert all(v == 0.0 for v in report.residuals.values())


def test_identities_float_group():
    import math
    from leafavg import group_closure
    s = math.sin(2 * math.pi / 3)
    dihedral = group_closure([[[-0.5, -s], [s, -0.5]], [[1.0, 0.0], [0.0, -1.0]]])
    f = P("x1^2", 2, FLOAT)
    g = P("x1 * x2", 2, FLOAT)
    report = verify_operator_identities(dihedral, f, g)
    assert report.passed
    assert report.tolerance == 1e-10  # floating matrix entries, roundoff allowed


def test_identities_statistical(iso_g2_model):
    f = P("x1^2", 4)
    g = P("x3^2", 4)
    report = verify_operator_identities(iso_g2_model, f, g)
    assert report.passed and all(v == 0.0 for v in report.residuals.values())
    assert report.engine == "level_law"
    assert report.tolerance == 1e-10


def test_identity_violation_raises_with_report(iso_g2_model, monkeypatch):
    from leafavg import IsoparametricModel
    reynolds = IsoparametricModel.reynolds
    monkeypatch.setattr(IsoparametricModel, "reynolds", lambda self, f: reynolds(self, f).scale(Fraction(101, 100)))
    f = P("x1^2", 4)
    g = P("x3^2", 4)
    with pytest.raises(IdentityViolation) as info:
        verify_operator_identities(iso_g2_model, f, g)
    assert info.value.identity in {
        "idempotence", "selfadjoint", "contraction", "module", "laplacian"
    }
    assert info.value.report.passed is False


# -- one set of identity formulas ----------------------------------------------------


def test_cycle_probe_fallback_keeps_degree():
    # a probe of degree d + 1 pairs to 0 with every degree-d f on the sphere,
    # which would make the self-adjointness residual vacuous
    from leafavg import sphere_inner
    f = P("x1^2 + x2^2 + x3^2", 3)
    probe = cycle_probe(f)
    assert probe.homogeneous_degree() == f.homogeneous_degree()
    assert sphere_inner(f, probe) != 0


def _reference_identities(model, f, g):
    """The identity residuals as computed before one identity function
    existed: formulas inline."""
    from leafavg import sphere_inner
    avg_f = model.reynolds(f)
    avg_g = model.reynolds(g)
    return {
        "idempotence": sphere_norm(model.reynolds(avg_f) - avg_f),
        "selfadjoint": abs(float(sphere_inner(avg_f, g) - sphere_inner(f, avg_g))),
        "contraction": max(0.0, -float(sphere_mean(f * f) - sphere_mean(avg_f * avg_f))),
        "laplacian": sphere_norm(avg_f.laplacian() - model.reynolds(f.laplacian())),
        "module": sphere_norm(model.reynolds(avg_f * g) - avg_f * avg_g),
    }


def _bits(residuals):
    return {name: float(value).hex() for name, value in residuals.items()}


def test_exact_identities_match_reference(b3_model, hopf_model, iso_g2_model, iso_g3_model):
    import math
    from leafavg import group_closure
    s = math.sin(2 * math.pi / 3)
    dihedral = group_closure([[[-0.5, -s], [s, -0.5]], [[1.0, 0.0], [0.0, -1.0]]])
    cartan = load_config(_CONFIG_DIR / "cartan_so3_g3.json").build_model()
    rng = np.random.default_rng(53)
    for model in (b3_model, hopf_model, dihedral, iso_g2_model, iso_g3_model, cartan):
        f = random_homogeneous(model.ambient_dim, 3, rng, mode=model.mode)
        g = random_homogeneous(model.ambient_dim, 2, rng, mode=model.mode)
        report = verify_operator_identities(model, f, g)
        assert _bits(report.residuals) == _bits(_reference_identities(model, f, g))


# -- memory --------------------------------------------------------------------


def test_verify_memory_is_bounded_by_one_cloud(tmp_path):
    # verify on cartan_so3_g3 reads 100k-sample clouds of R^5 (4 MB of points
    # each): the cloud being built and its scratch row, plus block-sized
    # evaluation scratch.  9.0 MiB measured; 14.3 MiB when two clouds were
    # kept because the probes read their seeds in probe order
    import tracemalloc
    argv = ["verify", "--config", str(_CONFIG_DIR / "cartan_so3_g3.json"), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code = cli_main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - start < 11 * 2**20


def test_dropped_model_is_freed_without_collection():
    # no module keeps a reference to an isoparametric model it averaged, so
    # a model dies with its last reference, with no collector pass
    gc.collect()
    gc.disable()
    try:
        model = load_config(_CONFIG_DIR / "iso_g2.json").build_model()
        average(model, P("x1^2", 4), seed=5)
        dead = weakref.ref(model)
        del model
        assert dead() is None
    finally:
        gc.enable()
