import dataclasses
import itertools
import json
import warnings

import pytest

from leafavg import (
    EXACT,
    DegreeCapWarning,
    EffectiveSampleTooSmall,
    GenerationGap,
    GeneratorSet,
    IsoparametricModel,
    Polynomial,
    RankUnstable,
    ScalarModeMismatch,
    basic_subspace,
    discover_generators,
    format_polynomial,
    group_closure,
    molien_dimensions,
    monomial_basis,
    parse_polynomial,
    sphere_norm,
    verify_generation,
)
from leafavg.averaging import generator_products
from leafavg.basic_ring import gram_schmidt_polys, project_residual

def P(text, dim, mode=EXACT):
    return parse_polynomial(text, dim, mode)


@pytest.fixture(scope="module")
def pm_model():
    return group_closure([[[-1, 0], [0, -1]]], name="antipodal on R^2")


# -- basic slices ------------------------------------------------------------------


def test_subspace_c4_degree2(c4_model):
    basis = basic_subspace(c4_model, 2)
    assert basis.rank == 1
    # the slice is spanned by r^2
    assert basis.residual(P("x1^2 + x2^2", 2)) == 0.0


def test_subspace_odd_degrees_vanish(pm_model):
    assert basic_subspace(pm_model, 1).rank == 0
    assert basic_subspace(pm_model, 3).rank == 0


def test_subspace_t2_degree2(t2_model):
    basis = basic_subspace(t2_model, 2)
    assert basis.rank == 2
    assert basis.residual(P("x1^2 + x2^2", 4)) == 0.0
    assert basis.residual(P("x3^2 + x4^2", 4)) == 0.0
    assert basis.residual(P("x1^2", 4)) > 0.1


def test_subspace_rows_are_orthogonal(b3_model):
    basis = basic_subspace(b3_model, 4)
    polys = basis.polynomials()
    assert basis.rank == 2
    for i, p in enumerate(polys):
        for q in polys[i + 1:]:
            from leafavg import sphere_inner
            assert sphere_inner(p, q) == 0


# -- Molien series ------------------------------------------------------------------


def test_molien_trivial_group():
    trivial = group_closure([[[1]]])
    assert molien_dimensions(trivial, 5) == [1, 1, 1, 1, 1, 1]


def test_molien_antipodal(pm_model):
    dims = molien_dimensions(pm_model, 4)
    assert dims[2] == 3  # x^2, xy, y^2 all invariant
    assert dims[1] == 0 and dims[3] == 0


def test_molien_c4(c4_model):
    dims = molien_dimensions(c4_model, 4)
    assert dims[2] == 1
    assert dims[4] == 3


def test_molien_matches_subspace(b2_model, b3_model, c4_model):
    for model in (b2_model, b3_model, c4_model):
        dims = molien_dimensions(model, 6)
        for d in range(1, 7):
            assert basic_subspace(model, d).rank == dims[d], (model.name, d)


def test_molien_requires_exact_mode():
    s = 0.8660254037844386
    float_group = group_closure([[[-0.5, -s], [s, -0.5]]])
    with pytest.raises(ScalarModeMismatch):
        molien_dimensions(float_group, 4)


# -- generator discovery --------------------------------------------------------------


def test_b3_generator_degrees(b3_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(b3_model, 6)
    assert list(gens.degrees) == [2, 4, 6]
    assert gens.dims_by_degree == {1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 3}


def test_t2_generators_are_plane_radii(t2_model):
    gens = discover_generators(t2_model, 4)
    texts = [format_polynomial(p) for p in gens.generators]
    assert texts == ["x1^2 + x2^2", "x3^2 + x4^2"]


def test_hopf_generators(hopf_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(hopf_model, 2)
    assert list(gens.degrees) == [2, 2, 2, 2]
    texts = {format_polynomial(p) for p in gens.generators}
    assert texts == {
        "x1^2 + x2^2",
        "x1 * x3 + x2 * x4",
        "x1 * x4 - x2 * x3",
        "x3^2 + x4^2",
    }


def test_weighted_circle_mixed_degrees(circle12_model):
    gens = discover_generators(circle12_model, 4)
    assert list(gens.degrees) == [2, 2, 3, 3]
    # no new generators at degree 4: the degree-4 slice is spanned by products
    assert gens.dims_by_degree[4] == 3


def _torus_slice_dimension(model, degree):
    """Brute-force dim B_d of a torus: the number of monomials
    ``z^alpha zbar^beta w^gamma`` of degree ``d`` with ``W^T (alpha - beta) = 0``."""
    m = model.n_planes
    count = 0
    for expo in itertools.product(range(degree + 1), repeat=2 * m + model.n_fix):
        if sum(expo) == degree and model._balanced([expo[j] - expo[m + j] for j in range(m)]):
            count += 1
    return count


def test_torus_dimensions_match_balanced_monomial_count(t2_model, hopf_model, circle12_model):
    for model in (t2_model, hopf_model, circle12_model):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegreeCapWarning)
            gens = discover_generators(model, 6)
        oracle = {d: _torus_slice_dimension(model, d) for d in range(1, 7)}
        assert gens.dims_by_degree == oracle, model.name
    assert [_torus_slice_dimension(hopf_model, d) for d in (2, 4, 6)] == [4, 9, 16]
    assert [_torus_slice_dimension(circle12_model, d) for d in (3, 5)] == [2, 4]


def test_generator_list_is_prefix_monotone(b3_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        small = discover_generators(b3_model, 4)
        large = discover_generators(b3_model, 6)
    assert list(large.generators)[: len(small.generators)] == list(small.generators)


def test_generators_are_fixed_by_averaging(b3_model, circle12_model):
    for model in (b3_model, circle12_model):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegreeCapWarning)
            gens = discover_generators(model, 4)
        for p in gens.generators:
            assert model.reynolds(p) == p


def test_radius_squared_recovered(b3_model, t2_model, hopf_model):
    for model in (b3_model, t2_model, hopf_model):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegreeCapWarning)
            gens = discover_generators(model, 2)
        degree2 = [p for d, p in zip(gens.degrees, gens.generators) if d == 2]
        ortho, norms = gram_schmidt_polys(degree2)
        r2 = P("x1^2" + "".join(f" + x{i}^2" for i in range(2, model.ambient_dim + 1)),
               model.ambient_dim)
        assert sphere_norm(project_residual(r2, ortho, norms)) == 0.0


def test_degree_cap_warning(hopf_model):
    with pytest.warns(DegreeCapWarning):
        discover_generators(hopf_model, 2)


# -- generation verification ------------------------------------------------------------


def test_verify_generation_b3(b3_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(b3_model, 6)
    report = verify_generation(b3_model, gens, 6)
    assert report.max_residual == 0.0
    assert report.gaps() == []


def test_verify_generation_gap(t2_model):
    r2_only = GeneratorSet(
        ambient_dim=4, mode=EXACT,
        generators=(P("x1^2 + x2^2 + x3^2 + x4^2", 4),),
        degrees=(2,), degree_cap=2, dims_by_degree={}, provenance={},
    )
    with pytest.raises(GenerationGap) as info:
        verify_generation(t2_model, r2_only, 2)
    assert info.value.degrees == [2]
    assert info.value.report.max_residual_by_degree[2] > 0.0


def test_verify_generation_vacuous(pm_model):
    empty = GeneratorSet(
        ambient_dim=2, mode=EXACT, generators=(), degrees=(),
        degree_cap=1, dims_by_degree={}, provenance={},
    )
    report = verify_generation(pm_model, empty, 1)
    assert report.max_residual == 0.0


def _per_monomial_gaps(model, gens, max_degree):
    """Reference check: the degrees at which the average of some monomial
    lies outside the span of the generator products."""
    gaps = []
    for d in range(1, max_degree + 1):
        products = [p for _, p in generator_products(list(gens.generators), d)]
        ortho, norms = gram_schmidt_polys(products)
        worst = 0.0
        for expo in monomial_basis(model.ambient_dim, d):
            avg = model.reynolds(Polynomial.monomial(model.ambient_dim, expo, 1, EXACT))
            worst = max(worst, sphere_norm(project_residual(avg, ortho, norms)))
        if worst > 0.0:
            gaps.append(d)
    return gaps


@pytest.mark.parametrize("name, cap", [("b3", 6), ("hopf", 4), ("circle12", 4), ("t2", 4)])
def test_generation_verdict_matches_per_monomial_check(request, name, cap):
    model = request.getfixturevalue(f"{name}_model")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        full = discover_generators(model, cap)
    assert _per_monomial_gaps(model, full, cap) == []
    assert verify_generation(model, full, cap).gaps() == []
    for dropped in range(len(full)):
        kept = [i for i in range(len(full)) if i != dropped]
        partial = dataclasses.replace(
            full,
            generators=tuple(full.generators[i] for i in kept),
            degrees=tuple(full.degrees[i] for i in kept),
        )
        expected = _per_monomial_gaps(model, partial, cap)
        assert full.degrees[dropped] in expected
        with pytest.raises(GenerationGap) as info:
            verify_generation(model, partial, cap)
        assert info.value.degrees == expected


# -- statistical pipeline ----------------------------------------------------------------


def test_iso_subspace_degree2(iso_g2_model):
    basis = basic_subspace(iso_g2_model, 2, tol_rank=0.05, seed=5,
                           sample_points=24, mc_samples=40_000)
    assert basis.rank == 2
    assert basis.residual(P("x1^2 + x2^2 + x3^2 + x4^2", 4)) < 0.02
    assert basis.residual(iso_g2_model.F) < 0.02
    assert basis.residual(P("x1^2", 4)) > 0.1
    assert basis.singular_values is not None


def test_iso_subspace_degree1_empty(iso_g2_model):
    basis = basic_subspace(iso_g2_model, 1, tol_rank=0.05, seed=5,
                           sample_points=12, mc_samples=40_000)
    assert basis.rank == 0


def test_iso_discovery_matches_invariant_ring(iso_g2_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(iso_g2_model, 2, tol_rank=0.05, seed=5,
                                   sample_points=24, mc_samples=40_000)
    texts = {format_polynomial(p) for p in gens.generators}
    assert texts == {"x1^2 + x2^2", "x3^2 + x4^2"}


def test_statistical_slice_guards_effective_sample_size(iso_g2_model):
    starved = IsoparametricModel(iso_g2_model.F, 2, min_ess=1e9)
    with pytest.raises(EffectiveSampleTooSmall):
        basic_subspace(starved, 2, tol_rank=0.05, seed=5, sample_points=24, mc_samples=20_000)


def test_rank_unstable_reported(iso_g2_model):
    probe = basic_subspace(iso_g2_model, 2, tol_rank=0.05, seed=5,
                           sample_points=24, mc_samples=40_000)
    sv = probe.singular_values
    # place the threshold inside the noise cluster: ambiguous rank must raise
    ambiguous = (sv[4] + sv[5]) / 2
    with pytest.raises(RankUnstable) as info:
        basic_subspace(iso_g2_model, 2, tol_rank=ambiguous, seed=5,
                       sample_points=24, mc_samples=40_000)
    assert len(info.value.singular_values) == len(sv)


# -- serialization ------------------------------------------------------------------------


def test_generator_set_round_trip(t2_model):
    gens = discover_generators(t2_model, 4)
    data = json.loads(gens.to_json())
    back = GeneratorSet.from_dict(data)
    assert back.generators == gens.generators
    assert back.degrees == gens.degrees
    assert back.dims_by_degree == gens.dims_by_degree
