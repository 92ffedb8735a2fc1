import dataclasses
import itertools
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafavg import (
    EXACT,
    ConfigError,
    DegreeCapWarning,
    FiniteGroupModel,
    GenerationGap,
    GeneratorSet,
    Polynomial,
    RankUnstable,
    ScalarModeMismatch,
    basic_subspace,
    discover_generators,
    format_polynomial,
    group_closure,
    molien_dimensions,
    monomial_basis,
    TorusModel,
    parse_polynomial,
    sphere_inner,
    sphere_norm,
    verify_generation,
)
from leafavg import basic_ring, models
from leafavg.averaging import generator_products
from leafavg.basic_ring import _span_of, gram_schmidt_polys, project_residual
from leafavg.cli import _CONFIG_DIR, load_config
from leafavg.exactlinalg import rref
from leafavg.polynomials import MomentGram

from util import _gaussian_fraction_reynolds, _reference_average, swap_and_flip, torus_balanced


def P(text, dim, mode=EXACT):
    return parse_polynomial(text, dim, mode)


# a reflection with rational entries: its group is not all signed
# permutations, so its slice rows come from per-monomial averages
RATIONAL_GROUP = group_closure(
    [[[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]], [[-1, 0], [0, -1]]]
)


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


def test_det_identity_minus_tg_rational_entries():
    from leafavg.models import _det_identity_minus_tg
    reflection = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
    rotation = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    assert _det_identity_minus_tg(reflection) == [1, 0, -1]
    assert _det_identity_minus_tg(rotation) == [1, Fraction(-6, 5), 1]


def test_molien_matches_subspace_rational_group():
    dims = molien_dimensions(RATIONAL_GROUP, 6)
    assert dims == [1, 0, 2, 0, 3, 0, 4]
    for d in range(1, 7):
        assert basic_subspace(RATIONAL_GROUP, d).rank == dims[d]


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
        if sum(expo) == degree and torus_balanced(model, [expo[j] - expo[m + j] for j in range(m)]):
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


def test_verify_generation_gap_norms_pinned(t2_model):
    """The remainder norms of the t2 slices off the algebra of r^2 alone,
    pinned to the float the exact pairing rounds to."""
    r2_only = GeneratorSet(
        ambient_dim=4, mode=EXACT,
        generators=(P("x1^2 + x2^2 + x3^2 + x4^2", 4),),
        degrees=(2,), degree_cap=4, dims_by_degree={}, provenance={},
    )
    with pytest.raises(GenerationGap) as info:
        verify_generation(t2_model, r2_only, 4)
    assert info.value.report.max_residual_by_degree == {
        1: 0.0, 2: 0.4330127018922193, 3: 0.0, 4: 0.31426968052735443,
    }


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


# -- the exact pairing kernel ------------------------------------------------------------


def _fraction_gram_schmidt(polys):
    """Reference: Gram-Schmidt in Fraction polynomials, one ``sphere_inner``
    call per pair, as the kernel's entry points did before integer rows."""
    ortho, norms = [], []
    for p in polys:
        for b, n2 in zip(ortho, norms):
            coeff = sphere_inner(p, b) / n2
            if coeff != 0:
                p = p - b.scale(coeff)
        n2 = sphere_inner(p, p)
        if n2 != 0:
            ortho.append(p)
            norms.append(n2)
    return ortho, norms


def _fraction_project(p, ortho, norms):
    for b, n2 in zip(ortho, norms):
        coeff = sphere_inner(p, b) / n2
        if coeff != 0:
            p = p - b.scale(coeff)
    return p


@st.composite
def _pairing_inputs(draw):
    """Up to five exact polynomials in 2-5 variables, homogeneous of one
    degree or of mixed degrees, with mixed denominators; some are zero and
    some are combinations of earlier ones."""
    dim = draw(st.integers(2, 5))
    homogeneous = draw(st.booleans())
    degree = draw(st.integers(1, 3))
    monomials = (monomial_basis(dim, degree) if homogeneous else
                 [e for d in range(4) for e in monomial_basis(dim, d)])
    coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 12]))
    polys = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("random", "random", "zero", "dependent")))
        if kind == "zero":
            polys.append(Polynomial.zero(dim))
        elif kind == "dependent" and polys:
            a, b = draw(coeff), draw(coeff)
            polys.append(polys[-1].scale(a) + polys[0].scale(b))
        else:
            picks = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True))
            polys.append(Polynomial(dim, {e: draw(coeff) for e in picks}))
    picks = draw(st.lists(st.sampled_from(monomials), min_size=0, max_size=5, unique=True))
    return polys, Polynomial(dim, {e: draw(coeff) for e in picks})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairing_inputs())
def test_integer_kernel_matches_fraction_gram_schmidt(inputs):
    polys, probe = inputs
    ortho, norms = gram_schmidt_polys(polys)
    expected_ortho, expected_norms = _fraction_gram_schmidt(polys)
    assert ortho == expected_ortho
    assert norms == expected_norms
    remainder = project_residual(probe, ortho, norms)
    expected = _fraction_project(probe, expected_ortho, expected_norms)
    assert remainder == expected
    span = _span_of(polys, probe)
    assert span.norm(*span.remainder(*span.gram.row(probe))) == sphere_norm(expected)


EXACT_CONFIGS = ("b2", "b3", "c4", "t2_full", "hopf", "circle12")
SLICE_MODELS = {
    **{name: load_config(_CONFIG_DIR / f"{name}.json").build_model() for name in EXACT_CONFIGS},
    "signed_torus_fix1": TorusModel([[1, -2], [2, 1]], n_fix=1),
    "rational_group": RATIONAL_GROUP,
}


@pytest.mark.parametrize("name", sorted(SLICE_MODELS))
def test_slice_rows_span_the_averaged_monomials(name):
    # reynolds projects onto the span of slice_rows, so the averages come
    # from references that never read the rows
    model = SLICE_MODELS[name]
    if name == "rational_group":
        assert model._signed_table().others
    average = (_reference_average if isinstance(model, FiniteGroupModel)
               else _gaussian_fraction_reynolds)
    for d in range(1, 7):
        monomials = monomial_basis(model.ambient_dim, d)
        averages = [average(model, Polynomial.monomial(model.ambient_dim, e, 1)) for e in monomials]
        averaged = [[avg.coefficient(e) for e in monomials] for avg in averages]
        rows = [[row.get(e, 0) for e in monomials] for row in model.slice_rows(d)]
        assert rref(rows) == rref(averaged), (name, d)


# -- isoparametric slices ----------------------------------------------------------------


def test_iso_subspace_degree2(iso_g2_model):
    basis = basic_subspace(iso_g2_model, 2)
    assert basis.rank == 2
    assert basis.residual(P("x1^2 + x2^2 + x3^2 + x4^2", 4)) < 1e-12
    assert basis.residual(iso_g2_model.F) < 1e-12
    assert basis.residual(P("x1^2", 4)) > 0.1
    assert basis.singular_values is not None


def test_iso_subspace_degree1_empty(iso_g2_model):
    basis = basic_subspace(iso_g2_model, 1)
    assert basis.rank == 0


def test_iso_discovery_matches_invariant_ring(iso_g2_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(iso_g2_model, 4, seed=5)
    texts = {format_polynomial(p) for p in gens.generators}
    assert texts == {"x1^2 + x2^2", "x3^2 + x4^2"}
    assert gens.dims_by_degree == {1: 0, 2: 2, 3: 0, 4: 3}


def test_exact_slice_past_the_cell_bound_is_refused():
    # an order-8 group on R^16: degree 4 (about 8.2 million cells) is built,
    # degree 6 (41,941 rows over 32,211 monomials) is refused before any dense row
    group = group_closure(swap_and_flip(16))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"degree-6 .* 41941 rows over 32211 monomials.*MAX_SLICE_CELLS"):
        basic_subspace(group, 6)
    assert time.perf_counter() - start < 5
    assert basic_subspace(group, 4).rank == 2487


def test_group_slice_walk_past_the_monomial_bound_is_refused():
    # the same group: degrees 7 and 8 (170,544 and 490,314 monomials of R^16)
    # are refused before the walk lists them; degree 6 walks and meets the cell bound
    group = group_closure(swap_and_flip(16))
    for degree, count in ((7, 170544), (8, 490314)):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=rf"degree-{degree} .* {count} monomials .*MAX_SLICE_MONOMIALS"):
            basic_subspace(group, degree)
        assert time.perf_counter() - start < 1
    assert models.MAX_SLICE_MONOMIALS == 10 ** 5 > len(monomial_basis(16, 6))


def test_torus_fixed_coordinates_past_the_cell_bound_are_refused():
    # each monomial of the fixed coordinates alone is a row on its own monomial:
    # C(101, 2) = 5,050 of degree 2, or C(15, 6) = 5,005 of degree 6, squared pass
    # 10^7 cells; C(14, 5) = 2,002 of degree 5 do not
    for n_fix, degree, count in ((100, 2, 5050), (10, 6, 5005)):
        torus = TorusModel([[1], [1]], n_fix=n_fix)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=rf"n_fix = {n_fix} gives {count} degree-{degree} .*MAX_SLICE_CELLS"):
            torus.slice_rows(degree)
        assert time.perf_counter() - start < 1
    assert len(TorusModel([[1], [1]], n_fix=10).slice_rows(5)) == 2972


def test_closed_form_float_slices_cut_at_the_float_rank_tolerance():
    s = 0.8660254037844386
    dihedral = group_closure([[[-0.5, -s], [s, -0.5]], [[1.0, 0.0], [0.0, -1.0]]])
    assert basic_subspace(dihedral, 2).tol_rank == dihedral.tol_rank == models.FLOAT_TOL_RANK == 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(dihedral, 3)
    assert gens.provenance["tol_rank"] == 1e-8
    assert list(gens.degrees) == [2, 3]


def test_rank_unstable_reported(iso_g2_model, monkeypatch):
    probe = basic_subspace(iso_g2_model, 2)
    assert probe.tol_rank == models.FLOAT_TOL_RANK
    sv = probe.singular_values
    # place the threshold between the two singular values, less than the
    # guard band apart: an ambiguous rank must raise
    monkeypatch.setattr(models.IsoparametricModel, "tol_rank", (sv[0] + sv[1]) / 2)
    with pytest.raises(RankUnstable) as info:
        basic_subspace(iso_g2_model, 2)
    assert len(info.value.singular_values) == len(sv)


# -- work done once per slice ---------------------------------------------------------------
# each test builds its own model: exact slices are kept per model, so a shared
# fixture's counts would depend on the tests that ran before


def test_float_discovery_builds_one_gram_matrix_per_slice(monkeypatch):
    config = load_config(_CONFIG_DIR / "iso_g2.json")
    calls = []
    gram_matrix = basic_ring._gram_matrix

    def counted(ambient_dim, monomials):
        calls.append(len(monomials))
        return gram_matrix(ambient_dim, monomials)

    monkeypatch.setattr(basic_ring, "_gram_matrix", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        discover_generators(config.build_model(), 2, seed=config.params["seed"])
    assert calls == [4, 10]  # degrees 1 and 2


def test_exact_discovery_builds_polynomials_only_for_generators(monkeypatch):
    calls = []
    poly = MomentGram.poly

    def counted(self, row, den):
        calls.append(den)
        return poly(self, row, den)

    monkeypatch.setattr(MomentGram, "poly", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(load_config(_CONFIG_DIR / "b3.json").build_model(), 6)
    assert len(calls) == len(gens) == 3
