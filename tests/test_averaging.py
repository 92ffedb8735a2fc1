import gc
import weakref

import numpy as np
import pytest

from leafavg import (
    EXACT,
    FLOAT,
    BasisDeficient,
    IdentityViolation,
    IllConditionedFit,
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
from leafavg.models import LevelSetSampler

from util import euler_apply, random_homogeneous, with_sizes


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


# -- statistical engine --------------------------------------------------------------


def test_fit_recovers_quadric_average(iso_g2_model):
    f = P("x1^2", 4)
    cert = average(with_sizes(iso_g2_model, mc_samples=200_000), f, seed=11)
    assert cert.engine == "vandermonde_fit"
    expected = P("0.5 * x1^2 + 0.5 * x2^2", 4, FLOAT)
    assert sphere_norm(cert.average_poly - expected) < 0.02
    assert cert.fit["condition"] < 1e3
    assert cert.fit["sample_count"] == 20
    assert cert.seed == 11


def test_fit_builds_kernel_weights_twice_per_level(iso_g2_model, monkeypatch):
    # one estimator pass for f, its probe and its Laplacian, one for the fitted
    # average and its square: the weights of each fit level are built twice.
    # Each covers only the level's kernel window (about 5% of the iso_g2
    # cloud for h = 0.05), never all N samples.
    calls = []
    lengths = []
    weights = LevelSetSampler.weights

    def counted(self, level, window=None):
        calls.append(level)
        result = weights(self, level, window)
        lengths.append(len(result))
        return result

    monkeypatch.setattr(LevelSetSampler, "weights", counted)
    n = 20_000
    cert = average(with_sizes(iso_g2_model, 24, n), P("x1^2", 4), seed=3)
    assert cert.fit["sample_count"] == 24
    assert 0 < len(calls) <= 2 * cert.fit["sample_count"]
    assert sum(lengths) < 0.25 * n * len(calls)


def test_fit_fixes_basic_input(iso_g2_model):
    cert = average(with_sizes(iso_g2_model, mc_samples=200_000), iso_g2_model.F, seed=12)
    assert sphere_norm(cert.average_poly - iso_g2_model.F.to_float()) < 0.02


def test_fit_certificate_residuals_reasonable(iso_g2_model):
    cert = average(with_sizes(iso_g2_model, mc_samples=100_000), P("x1^2", 4), seed=13)
    for name, value in cert.residuals.items():
        assert value >= 0.0
        assert value < 0.05, name


def test_fit_condition_cap(iso_g2_model, monkeypatch):
    monkeypatch.setattr(averaging, "COND_CAP", 1.0)
    with pytest.raises(IllConditionedFit, match="above cap 1.0e"):
        average(with_sizes(iso_g2_model, mc_samples=50_000), P("x1^2", 4), seed=14)


def test_structured_fit_coefficients(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"])
    model = with_sizes(iso_g2_model, mc_samples=200_000)
    res = average_structured(model, P("x1^2", 4), gens, seed=15)
    assert res.patterns == [(1, 0), (0, 1)]
    assert abs(res.coefficients[0] - 0.25) < 0.02
    assert abs(res.coefficients[1] - 0.25) < 0.02
    assert res.residual_rms <= 1e-2


def test_structured_fit_of_algebra_element(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"])
    f = (iso_g2_model.F ** 3).to_float()
    res = average_structured(with_sizes(iso_g2_model, 40, 200_000), f, gens, seed=16)
    coeff = dict(zip(res.patterns, res.coefficients))
    assert abs(coeff[(0, 3)] - 1.0) < 0.05
    for pattern, value in coeff.items():
        if pattern != (0, 3):
            assert abs(value) < 0.05


def test_structured_fit_detects_missing_generator(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2"])
    with pytest.raises(BasisDeficient) as info:
        average_structured(with_sizes(iso_g2_model, mc_samples=100_000), P("x1^2", 4), gens, seed=17)
    assert info.value.residual > 1e-2


def test_structured_fit_no_products_at_degree(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2"])
    with pytest.raises(BasisDeficient):
        average_structured(with_sizes(iso_g2_model, mc_samples=50_000), P("x1^2 * x2", 4).scale(1),
                           gens, seed=18)


def test_monotone_consistency_under_doubling(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"])
    f = P("x1^2", 4)
    res_n = average_structured(with_sizes(iso_g2_model, mc_samples=100_000), f, gens, seed=19)
    res_2n = average_structured(with_sizes(iso_g2_model, mc_samples=200_000), f, gens, seed=19)
    allowance = max(res_n.point_ses)
    assert res_2n.residual_rms <= res_n.residual_rms + allowance


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
    report = verify_operator_identities(with_sizes(iso_g2_model, mc_samples=100_000, identity_tol=0.05),
                                        f, g, seed=31)
    assert report.passed
    assert report.engine == "vandermonde_fit"


def test_identity_violation_raises_with_report(iso_g2_model):
    f = P("x1^2", 4)
    g = P("x3^2", 4)
    with pytest.raises(IdentityViolation) as info:
        verify_operator_identities(with_sizes(iso_g2_model, mc_samples=50_000, identity_tol=1e-14),
                                   f, g, seed=32)
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


def _reference_certificate_fit(model, f, seed, probe):
    """The average of ``f`` and its certificate residuals as the fit engine
    computed them before one identity function existed: formulas inline,
    from two raw estimator passes."""
    import math
    from leafavg import Polynomial, sphere_inner
    from leafavg.averaging import _FitContext
    degree = f.homogeneous_degree()
    f = f.to_float()
    probe = cycle_probe(f) if probe is None else probe.to_float()
    lap_f = f.laplacian()
    with_lap = degree >= 2 and not lap_f.is_zero
    ctx = _FitContext(model, degree, seed)
    responses, _ = ctx.responses(f, probe, *([lap_f] if with_lap else []))
    avg, _, _ = ctx.fit(responses[0], degree)
    if with_lap:
        lap_avg, _, _ = ctx.fit(responses[2], degree - 2)
    else:
        lap_avg = Polynomial.zero(model.ambient_dim, FLOAT)
    probe_avg, _, _ = ctx.fit(responses[1], probe.homogeneous_degree())
    avg_values = avg.eval_many(ctx.sampler.points)
    again, _ = ctx.sampler.leaf_average_values(np.stack([avg_values, avg_values ** 2]), ctx.levels)
    e1, e2 = again[:, :8]
    avg_again, _, _ = ctx.fit(again[0], degree)
    return avg, {
        "idempotence": sphere_norm(avg_again - avg),
        "leaf_constancy": math.sqrt(max([0.0, *(e2 - e1 * e1).tolist()])),
        "laplacian": sphere_norm(avg.laplacian() - lap_avg),
        "contraction": max(0.0, -(sphere_mean(f * f) - sphere_mean(avg * avg))),
        "selfadjoint": abs(sphere_inner(avg, probe) - sphere_inner(f, probe_avg)),
    }


def _reference_identities(model, f, g, *, seed=0):
    """The identity residuals as computed before one identity function
    existed: closed-form formulas inline, and three full fit certificates
    per probe pair on the statistical path."""
    from leafavg import sphere_inner
    if model.closed_form:
        avg_f = model.reynolds(f)
        avg_g = model.reynolds(g)
        return {
            "idempotence": sphere_norm(model.reynolds(avg_f) - avg_f),
            "selfadjoint": abs(float(sphere_inner(avg_f, g) - sphere_inner(f, avg_g))),
            "contraction": max(0.0, -float(sphere_mean(f * f) - sphere_mean(avg_f * avg_f))),
            "laplacian": sphere_norm(avg_f.laplacian() - model.reynolds(f.laplacian())),
            "module": sphere_norm(model.reynolds(avg_f * g) - avg_f * avg_g),
        }
    avg_f, cert_f = _reference_certificate_fit(model, f, seed, g)
    avg_g, _ = _reference_certificate_fit(model, g, seed + 1, f)
    module_avg, _ = _reference_certificate_fit(model, avg_f * g.to_float(), seed + 2, None)
    scale_f = max(sphere_norm(f), 1e-12)
    scale_g = max(sphere_norm(g), 1e-12)
    scale_lap = max(sphere_norm(f.laplacian()), scale_f)
    return {
        "idempotence": cert_f["idempotence"] / scale_f,
        "selfadjoint": abs(sphere_inner(avg_f, g.to_float())
                           - sphere_inner(f.to_float(), avg_g)) / (scale_f * scale_g),
        "contraction": cert_f["contraction"] / (scale_f * scale_f),
        "module": sphere_norm(module_avg - avg_f * avg_g) / (scale_f * scale_g),
        "laplacian": cert_f["laplacian"] / scale_lap,
    }


def _bits(residuals):
    return {name: float(value).hex() for name, value in residuals.items()}


def test_statistical_identities_match_three_certificate_reference(iso_g2_model, iso_g3_model):
    from leafavg import format_polynomial
    rng = np.random.default_rng(47)
    for model in (with_sizes(iso_g2_model, 24, 20_000, float("inf")),
                  with_sizes(iso_g3_model, 24, 20_000, float("inf"))):
        for n in range(2):
            f = random_homogeneous(model.ambient_dim, 2, rng, n_terms=3)
            g = random_homogeneous(model.ambient_dim, 2, rng, n_terms=3)
            seed = 50 + n
            report = verify_operator_identities(model, f, g, seed=seed)
            assert _bits(report.residuals) == _bits(_reference_identities(model, f, g, seed=seed))
            cert = average(model, f, seed=seed)
            avg, residuals = _reference_certificate_fit(model, f, seed, cycle_probe(f))
            assert cert.average_text == format_polynomial(avg)
            assert _bits(cert.residuals) == _bits(residuals)


def test_exact_identities_match_reference(b3_model, hopf_model):
    import math
    from leafavg import group_closure
    s = math.sin(2 * math.pi / 3)
    dihedral = group_closure([[[-0.5, -s], [s, -0.5]], [[1.0, 0.0], [0.0, -1.0]]])
    rng = np.random.default_rng(53)
    for model in (b3_model, hopf_model, dihedral):
        f = random_homogeneous(model.ambient_dim, 3, rng, mode=model.mode)
        g = random_homogeneous(model.ambient_dim, 2, rng, mode=model.mode)
        report = verify_operator_identities(model, f, g)
        assert _bits(report.residuals) == _bits(_reference_identities(model, f, g))


def test_statistical_verify_makes_four_estimator_passes(iso_g2_model, monkeypatch):
    # f with its probe and Laplacian, the fitted average of f, then one pass
    # each for g and for avg_f * g; three full certificates made six
    calls = []
    estimate = LevelSetSampler.leaf_average_values

    def counted(self, values, levels, *args, **kwargs):
        calls.append(len(values))
        return estimate(self, values, levels, *args, **kwargs)

    monkeypatch.setattr(LevelSetSampler, "leaf_average_values", counted)
    f, g = P("x1^2", 4), P("x3^2", 4)
    model = with_sizes(iso_g2_model, 24, 20_000, float("inf"))
    verify_operator_identities(model, f, g, seed=33)
    assert len(calls) == 4
    assert calls[0] == 2  # f and its Laplacian: g is averaged on its own cloud
    calls.clear()
    _reference_identities(model, f, g, seed=33)
    assert len(calls) == 6


# -- full-cloud reuse ----------------------------------------------------------


def _fresh_iso_g2(sample_points, mc_samples, identity_tol=None):
    return with_sizes(load_config(_CONFIG_DIR / "iso_g2.json").build_model(), sample_points, mc_samples,
                      identity_tol)


def _fresh_cloud(model, seed):
    """The cloud of a fit context at ``seed``, drawn anew on every call."""
    return LevelSetSampler(model, np.random.SeedSequence(seed).spawn(2)[1], model.mc_samples)


def test_verify_builds_each_cloud_once(tmp_path, monkeypatch):
    # verify's probes n and n + 1 share two of their three seeds: one build
    # per distinct seed, not one per fit context
    requests, builds = [], []
    lookup = averaging._full_cloud
    build = LevelSetSampler.__init__

    def requested(model, seed):
        requests.append(seed)
        return lookup(model, seed)

    def built(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(averaging, "_full_cloud", requested)
    monkeypatch.setattr(LevelSetSampler, "__init__", built)
    code = cli_main(["verify", "--config", str(_CONFIG_DIR / "iso_g2.json"), "--out", str(tmp_path)])
    assert code == 0
    assert len(builds) == len(set(requests)) < len(requests)


def test_a_cloud_is_evicted_before_the_next_is_built(tmp_path, monkeypatch):
    # the least recently used cloud goes before the next full cloud is drawn,
    # so a model never holds more than CLOUDS_KEPT clouds, the new one included
    held, build = [], LevelSetSampler.__init__

    def built(self, model, seed, count, *, level=None):
        if level is None:
            held.append(len(averaging._CLOUDS.get(model, ())))
        build(self, model, seed, count, level=level)

    monkeypatch.setattr(LevelSetSampler, "__init__", built)
    code = cli_main(["verify", "--config", str(_CONFIG_DIR / "iso_g2.json"), "--out", str(tmp_path)])
    assert code == 0
    assert held and max(held) == averaging.CLOUDS_KEPT - 1


def test_verify_memory_is_bounded_by_two_clouds(tmp_path):
    # verify on cartan_so3_g3 reads 100k-sample clouds of R^5 (4 MB of points
    # each): one kept cloud, the one being built and its unsorted draw, plus
    # block-sized evaluation scratch.  16.4 MiB measured; 28.6 MiB when three
    # clouds were kept and eval_many built power tables of the cloud's length
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
    assert peak - start < 20 * 2**20


def test_reused_cloud_matches_fresh_cloud(monkeypatch):
    model = _fresh_iso_g2(24, 20_000, float("inf"))
    f, g = P("x1^2 - x2 * x3", 4), P("x3^2 + 2 * x1 * x4", 4)

    def run():
        reports = [verify_operator_identities(model, f, g, seed=60 + n)
                   for n in range(2)]
        certs = [average(model, f, seed=61) for _ in range(2)]
        return ([_bits(r.residuals) for r in reports],
                [(c.average_text, _bits(c.residuals), c.fit) for c in certs])

    cached = run()
    assert len(averaging._CLOUDS[model]) == averaging.CLOUDS_KEPT
    monkeypatch.setattr(averaging, "_full_cloud", _fresh_cloud)
    assert run() == cached


def test_dropped_model_is_freed_without_collection():
    # a kept cloud holds no reference to its model, so a model dies with its
    # last reference and takes its clouds along, with no collector pass
    gc.collect()
    gc.disable()
    try:
        model = _fresh_iso_g2(24, 5_000)
        average(model, P("x1^2", 4), seed=5)
        assert model in averaging._CLOUDS
        cloud = averaging._CLOUDS[model][5]
        dead = weakref.ref(model)
        del model
        assert dead() is None
        assert cloud.points.shape == (5_000, 4)
    finally:
        gc.enable()


def test_cloud_cache_is_bounded_and_read_only():
    model = _fresh_iso_g2(24, 5_000)
    f = P("x1 * x2", 4)
    for seed in range(averaging.CLOUDS_KEPT + 3):
        average(model, f, seed=seed)
        assert len(averaging._CLOUDS[model]) == min(seed + 1, averaging.CLOUDS_KEPT)
    kept = averaging._CLOUDS[model]
    assert list(kept) == list(range(3, 3 + averaging.CLOUDS_KEPT))
    cloud = next(iter(kept.values()))
    for array in (cloud.points, cloud.level_values, cloud.grad_norms):
        with pytest.raises(ValueError):
            array[0] = 0.0
