"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Each test prints a single PASS line (through the capture-disabled channel,
so the lines are visible in normal pytest runs).  Budgets are wall-clock
upper bounds; the statistical criteria state their sample sizes explicitly.
"""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from leafavg import (
    EXACT,
    DegreeCapWarning,
    GeneratorSet,
    NotCartanMunzner,
    Polynomial,
    TorusModel,
    average,
    average_structured,
    basic_subspace,
    discover_generators,
    format_polynomial,
    molien_dimensions,
    parse_polynomial,
    separation_test,
    sphere_inner,
    sphere_mean,
    sphere_norm,
    validate_munzner,
)
from leafavg.averaging import _FitContext, generator_products
from leafavg.basic_ring import gram_schmidt_polys, project_residual
from leafavg.cli import _CONFIG_DIR, BUNDLED_CONFIGS, load_config, main
from leafavg.models import sample_sphere_many
from leafavg.separation import MARGIN_MIN

from util import random_homogeneous, with_sizes


def P(text, dim, mode=EXACT):
    return parse_polynomial(text, dim, mode)


def announce(capsys, number, message):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} PASS: {message}")


@pytest.fixture(scope="module")
def iso_g2():
    return load_config(_CONFIG_DIR / "iso_g2.json").build_model()


# -- 1. operator identities, exact regime --------------------------------------------


def test_acceptance_1_exact_operator_identities(capsys, b3_model, c4_model, t2_model):
    budget = 60.0
    start = time.monotonic()
    rng = np.random.default_rng(20240)
    checked = 0
    for model in (b3_model, c4_model, t2_model):
        for _ in range(50):
            degree = int(rng.integers(1, 7))
            f = random_homogeneous(model.ambient_dim, degree, rng)
            g = random_homogeneous(model.ambient_dim, int(rng.integers(1, 7)), rng)
            avg_f = model.reynolds(f)
            avg_g = model.reynolds(g)
            # idempotence
            assert model.reynolds(avg_f) == avg_f
            # degree preservation
            assert avg_f.is_zero or avg_f.homogeneous_degree() == degree
            # self-adjointness of the sphere pairing
            assert sphere_inner(avg_f, g) == sphere_inner(f, avg_g)
            # contraction (operator norm one)
            assert sphere_mean(f * f) - sphere_mean(avg_f * avg_f) >= 0
            # module property over the basic multiplier [f]
            assert model.reynolds(avg_f * g) == avg_f * avg_g
            # commutation with the Laplacian
            assert avg_f.laplacian() == model.reynolds(f.laplacian())
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < budget
    announce(capsys, 1, f"{checked} exact identity checks, all residuals exactly 0 "
                        f"({elapsed:.1f}s < {budget:.0f}s)")


# -- 2. Molien oracle equivalence ------------------------------------------------------


def test_acceptance_2_molien_equivalence(capsys, b2_model, b3_model, c4_model):
    budget = 60.0
    start = time.monotonic()
    for model in (b2_model, b3_model, c4_model):
        dims = molien_dimensions(model, 8)
        for d in range(1, 9):
            assert basic_subspace(model, d).rank == dims[d], (model.name, d)
    elapsed = time.monotonic() - start
    assert elapsed < budget
    announce(capsys, 2, "averaging-image dimensions equal Molien coefficients for "
                        f"d <= 8 on all bundled finite groups ({elapsed:.1f}s)")


# -- 3. generator discovery on known rings ---------------------------------------------


def _algebra_slice_residual(members, candidate):
    degree = candidate.homogeneous_degree()
    products = [p for _, p in generator_products(list(members), degree)]
    ortho, norms = gram_schmidt_polys(products)
    return sphere_norm(project_residual(candidate, ortho, norms))


def test_acceptance_3_known_generator_rings(capsys, b3_model, t2_model, hopf_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        b3_gens = discover_generators(b3_model, 6)
        t2_gens = discover_generators(t2_model, 4)
        hopf_gens = discover_generators(hopf_model, 2)

    # hyperoctahedral: new generators exactly at 2, 4, 6, mutually
    # expressible with the elementary symmetric polynomials in squares
    assert list(b3_gens.degrees) == [2, 4, 6]
    elementary = [
        P("x1^2 + x2^2 + x3^2", 3),
        P("x1^2 * x2^2 + x1^2 * x3^2 + x2^2 * x3^2", 3),
        P("x1^2 * x2^2 * x3^2", 3),
    ]
    for e in elementary:
        assert _algebra_slice_residual(b3_gens.generators, e) == 0.0
    for g in b3_gens.generators:
        assert _algebra_slice_residual(elementary, g) == 0.0

    # full torus: exactly the two plane radii
    assert [format_polynomial(p) for p in t2_gens.generators] == \
        ["x1^2 + x2^2", "x3^2 + x4^2"]

    # Hopf circle: four degree-2 generators with the cross-term relation
    assert list(hopf_gens.degrees) == [2, 2, 2, 2]
    rho1, rho2, rho3, rho4 = hopf_gens.generators
    relation = rho2 * rho2 + rho3 * rho3 - rho1 * rho4
    assert relation.is_zero  # symbolic identity, stronger than sampling
    rng = np.random.default_rng(77)
    points = sample_sphere_many(1000, 4, rng)
    values = relation.to_float().eval_many(points)
    assert float(np.max(np.abs(values))) <= 1e-10
    announce(capsys, 3, "B3 degrees {2,4,6} (equal to symmetric-in-squares algebra, "
                        "residual 0), T2 plane radii, Hopf relation <= 1e-10 on 1000 points")


# -- 4. cross-engine consistency ---------------------------------------------------------


def test_acceptance_4_monte_carlo_vs_exact(capsys, iso_g2, t2_model):
    budget = 300.0
    n_cases = 20
    start = time.monotonic()
    rng = np.random.default_rng(424242)
    hits = 0
    for _ in range(n_cases):
        degree = int(rng.integers(1, 5))
        f = random_homogeneous(4, degree, rng)
        oracle = t2_model.reynolds(f)
        while True:
            p = sample_sphere_many(1, 4, rng)[0]
            if abs(iso_g2.level_of(p)) < 1.0 - 2.0 * iso_g2.h:
                break
        est, se = iso_g2.leaf_average_mc(
            f, p, rng_seed=int(rng.integers(0, 2 ** 31)), n=1_000_000
        )
        truth = float(oracle.eval([float(x) for x in p]))
        if abs(est - truth) <= 3.0 * se:
            hits += 1
    elapsed = time.monotonic() - start
    assert elapsed < budget
    assert hits >= int(np.ceil(0.95 * n_cases))
    announce(capsys, 4, f"{hits}/{n_cases} leaf estimates within 3 reported SE of the "
                        f"exact torus oracle at N=1e6, h=0.05 ({elapsed:.1f}s < {budget:.0f}s)")


# -- 5. polynomial recovery of the average -------------------------------------------------


def test_acceptance_5_polynomial_recovery(capsys, iso_g2):
    gens = GeneratorSet(
        ambient_dim=4, mode=EXACT,
        generators=(P("x1^2 + x2^2 + x3^2 + x4^2", 4), P("x1^2 + x2^2 - x3^2 - x4^2", 4)),
        degrees=(2, 2), degree_cap=2, dims_by_degree={}, provenance={"source": "known ring"},
    )
    f = P("x1^2", 4)
    seed = 50505
    model = with_sizes(iso_g2, mc_samples=1_000_000)
    structured = average_structured(model, f, gens, seed=seed)
    # [x1^2] = (r^2 + F) / 4: both structured coefficients are 1/4
    assert structured.patterns == [(1, 0), (0, 1)]
    assert abs(structured.coefficients[0] - 0.25) < 0.02
    assert abs(structured.coefficients[1] - 0.25) < 0.02

    unstructured = average(model, f, seed=seed)

    # same seed, hence the same fit points and leaf estimates: both fitted
    # polynomials are linear images of one response vector, so the
    # difference has covariance L diag(se^2) L^T with L the difference of
    # the two fit operators; compare its sphere norm against 2 SE
    ctx = _FitContext(model, 2, seed)
    design = ctx.design(ctx.monomials)
    basis_cols = np.column_stack([
        gens.generators[0].to_float().eval_many(ctx.points),
        gens.generators[1].to_float().eval_many(ctx.points),
    ])
    embed = np.column_stack([
        [float(p.to_float().coefficient(e)) for e in ctx.monomials]
        for p in gens.generators
    ])
    diff_operator = np.linalg.pinv(design) - embed @ np.linalg.pinv(basis_cols)
    ses = np.array(structured.point_ses)
    cov = diff_operator @ np.diag(ses ** 2) @ diff_operator.T
    from leafavg.basic_ring import _gram_matrix
    gram = _gram_matrix(4, ctx.monomials)
    norm_se = float(np.sqrt(max(np.trace(gram @ cov), 0.0)))
    gap = sphere_norm(unstructured.average_poly - structured.polynomial)
    assert gap <= 2.0 * norm_se + 1e-12
    announce(capsys, 5, "structured fit recovers [x1^2] = (r^2 + F)/4 with coefficient "
                        f"error < 0.02 at N=1e6; unstructured fit within 2 SE "
                        f"(gap {gap:.2e} <= {2 * norm_se:.2e})")


# -- 6. Cartan-Munzner admission --------------------------------------------------------------


def test_acceptance_6_munzner_admission(capsys):
    budget = 1.0
    start = time.monotonic()
    assert validate_munzner(P("x1", 3), 1) == 0
    assert validate_munzner(P("x1^2 + x2^2 - x3^2 - x4^2", 4), 2) == 0
    # degree-3 candidate: |grad F|^2 - 9 r^4 and the Laplacian must vanish
    # symbolically, or the candidate is rejected
    g3 = P("x1^3 - 3 * x1 * x2^2", 2)
    grad_sq = Polynomial.zero(2)
    for part in g3.gradient():
        grad_sq = grad_sq + part * part
    r2 = P("x1^2 + x2^2", 2)
    assert grad_sq - (r2 * r2).scale(9) == Polynomial.zero(2)
    assert g3.laplacian().is_zero
    assert validate_munzner(g3, 3) == 0
    with pytest.raises(NotCartanMunzner) as rejected:
        validate_munzner(P("x1^2", 4), 2)
    assert rejected.value.gradient_residual not in (None, "0")
    elapsed = time.monotonic() - start
    assert elapsed < budget
    announce(capsys, 6, "g = 1, 2, 3 candidates admitted on exact symbolic identities; "
                        f"sabotage x1^2 rejected with nonzero residual ({elapsed * 1e3:.0f}ms)")


# -- 7. separation ---------------------------------------------------------------------------


def test_acceptance_7_separation_margins(capsys):
    budget = 60.0
    start = time.monotonic()
    num_pairs = 1000
    tested = []
    for name in BUNDLED_CONFIGS:
        config = load_config(_CONFIG_DIR / name)
        model = config.build_model()
        if "generators" in config.params:
            from leafavg.cli import _load_generators
            gens = _load_generators(config, model)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegreeCapWarning)
                gens = discover_generators(model, int(config.params["D"]))
        cert = separation_test(model, gens, num_pairs, float(config.params["tol_same"]),
                               int(config.params["seed"]))
        assert cert.verdict == "pass", name
        assert cert.margin_ratio > MARGIN_MIN, name
        tested.append(config.name)

    # the impoverished set {r^2} on the full torus fails, with the
    # documented counterexample pair recorded in the certificate
    t2 = TorusModel([[1, 0], [0, 1]])
    r2_only = GeneratorSet(
        ambient_dim=4, mode=EXACT,
        generators=(P("x1^2 + x2^2 + x3^2 + x4^2", 4),),
        degrees=(2,), degree_cap=2, dims_by_degree={}, provenance={},
    )
    e1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    e3 = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    failing = separation_test(t2, r2_only, 100, 1e-9, 31337,
                              adversarial_pairs=[(e1, e3)])
    assert failing.verdict == "fail"
    assert failing.failures[0]["point"] == [1.0, 0.0, 0.0, 0.0]
    assert failing.failures[0]["other"] == [0.0, 0.0, 1.0, 0.0]
    elapsed = time.monotonic() - start
    assert elapsed < budget
    announce(capsys, 7, f"separation margin > {MARGIN_MIN:g} on {len(tested)} bundled "
                        f"models at {num_pairs} pairs; r^2-only torus set fails with the "
                        f"documented counterexample ({elapsed:.1f}s < {budget:.0f}s)")


# -- 8. determinism ----------------------------------------------------------------------------


def test_acceptance_8_byte_identical_reports(capsys, tmp_path):
    pairs = []
    for task, config in (("separate", "b2.json"), ("avg", "iso_g2.json")):
        out_a = tmp_path / f"{task}_a"
        out_b = tmp_path / f"{task}_b"
        for out in (out_a, out_b):
            code = main([task, "--config", str(_CONFIG_DIR / config), "--out", str(out)])
            assert code == 0
        artifacts = sorted(p.name for p in out_a.iterdir())
        assert artifacts
        for artifact in artifacts:
            a = (out_a / artifact).read_bytes()
            b = (out_b / artifact).read_bytes()
            assert a == b, (task, artifact)
        pairs.append((task, config))
    announce(capsys, 8, "repeated runs of bundled configs with fixed seeds produce "
                        f"byte-identical artifacts: {pairs}")
