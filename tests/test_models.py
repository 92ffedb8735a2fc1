import math
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafavg import (
    EXACT,
    FLOAT,
    ConfigError,
    DimensionMismatch,
    EffectiveSampleTooSmall,
    GroupTooLarge,
    IsoparametricModel,
    NearSingularLeaf,
    NonOrthogonalGenerator,
    NotCartanMunzner,
    OffSphere,
    Polynomial,
    ScalarModeMismatch,
    group_closure,
    parse_polynomial,
    radius_squared,
    sample_sphere,
    validate_munzner,
)
from leafavg import models
from leafavg.cli import _CONFIG_DIR, load_config
from leafavg.models import LevelSetSampler, PointBatch, _mat_vec, sample_sphere_many
from leafavg.polynomials import grlex_key
from leafavg.separation import rational_sphere_points

from util import (
    _gaussian_fraction_reynolds,
    _reference_average,
    exact_polys,
    fraction_rotation_mate,
    random_homogeneous,
)


def P(text, dim, mode=EXACT):
    return parse_polynomial(text, dim, mode)


# -- group closure --------------------------------------------------------------


def test_closure_of_minus_identity():
    model = group_closure([[[-1, 0], [0, -1]]])
    assert model.order == 2


def test_closure_of_quarter_turn():
    model = group_closure([[[0, -1], [1, 0]]])
    assert model.order == 4


def test_closure_hyperoctahedral(b2_model):
    # swap and sign flip generate the order-8 hyperoctahedral group
    assert b2_model.order == 8


def test_closure_rejects_non_orthogonal():
    with pytest.raises(NonOrthogonalGenerator):
        group_closure([[[1, 1], [0, 1]]])


def test_closure_detects_infinite_group():
    # a rational rotation of infinite order: cos = 3/5, sin = 4/5
    gen = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    with pytest.raises(GroupTooLarge):
        group_closure([gen], max_group_size=64)


def test_float_closure_dedup():
    s = math.sin(2 * math.pi / 3)
    rot = [[-0.5, -s], [s, -0.5]]
    refl = [[1.0, 0.0], [0.0, -1.0]]
    model = group_closure([rot, refl], mode=FLOAT)
    assert model.order == 6


def _fraction_closure(generators):
    """Reference: the breadth-first closure on Fraction matrices, hashed as such."""
    identity = models._identity(len(generators[0]), EXACT)
    elements, seen = [identity], {identity}
    for current in elements:
        for g in generators:
            prod = models._mat_mul(current, g, Fraction(0))
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
    return elements


B4_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "b4_cap8.json"


@pytest.mark.parametrize("name", ["b4", "rational"])
def test_integer_closure_matches_fraction_closure(name):
    if name == "b4":
        model = load_config(B4_CONFIG).build_model()
        assert model.order == 384
    else:
        reflection = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
        model = group_closure([reflection, [[0, 1], [-1, 0]]])
        assert model.order == 8
    assert list(model.elements) == _fraction_closure(model.generators)
    assert all(type(x) is Fraction for g in model.elements for row in g for x in row)


# -- group averaging -------------------------------------------------------------


def test_reynolds_odd_function_vanishes():
    model = group_closure([[[-1, 0], [0, -1]]])
    assert model.reynolds(P("x1", 2)).is_zero


def test_reynolds_quarter_turn_symmetrizes(c4_model):
    assert c4_model.reynolds(P("x1^2", 2)) == P("1/2 * x1^2 + 1/2 * x2^2", 2)


def test_reynolds_mode_mismatch(c4_model):
    with pytest.raises(ScalarModeMismatch):
        c4_model.reynolds(P("x1", 2, FLOAT))


def test_reynolds_idempotent_and_leaf_constant(b3_model):
    rng = np.random.default_rng(5)
    f = random_homogeneous(3, 4, rng)
    avg = b3_model.reynolds(f)
    assert b3_model.reynolds(avg) == avg
    # exact leaf constancy at a rational point
    p = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 11))
    values = {avg.eval(q) for q in b3_model.orbit(p)}
    assert len(values) == 1


B3_GENERATORS = (
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
)
# a reflection with rational entries: {I, R} mixes a signed permutation with
# an element outside the signed-permutation table
REFLECTION = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
GROUPS = {
    (name, mode): group_closure(
        [[[float(x) for x in row] for row in g] if mode == FLOAT else g for g in gens], mode=mode
    )
    for name, gens in (("b3", B3_GENERATORS), ("mixed", [REFLECTION]))
    for mode in (EXACT, FLOAT)
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_reynolds_matches_sum_of_pullbacks(key, data):
    model = GROUPS[key]
    f = data.draw(exact_polys(model.ambient_dim, max_degree=4))
    if model.mode == FLOAT:
        f = f.to_float()
    result = model.reynolds(f)
    reference = _reference_average(model, f)
    assert result == reference
    assert all(c != 0 for c in result.terms.values())
    if model.mode == FLOAT:
        # the same terms in the same order, so float sums over them agree too
        assert list(result.terms.items()) == list(reference.terms.items())


def test_group_models_split_elements_by_kind():
    assert GROUPS["mixed", EXACT].order == GROUPS["mixed", FLOAT].order == 2
    assert len(GROUPS["mixed", EXACT]._signed_table().others) == 1
    assert not GROUPS["b3", EXACT]._signed_table().others
    assert len(GROUPS["b3", FLOAT]._signed_table().others) == 48


def test_signed_permutation_average_builds_no_pullback(b3_model, monkeypatch):
    f = P("x1^3 * x2 - 2/3 * x2^2 * x3^2 + x3", 3)
    expected = _reference_average(b3_model, f)

    def refuse(f, matrix):
        raise AssertionError("a signed permutation was pulled back as a matrix")

    monkeypatch.setattr(models, "compose_with_matrix", refuse)
    assert b3_model.reynolds(f) == expected


BUNDLED_GROUPS = {name: load_config(_CONFIG_DIR / f"{name}.json").build_model()
                  for name in ("b2", "b3", "c4")}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BUNDLED_GROUPS)), st.integers(0, 2 ** 32 - 1))
def test_group_quotient_distance_matches_exact_orbit(name, seed):
    model = BUNDLED_GROUPS[name]
    p, q = rational_sphere_points(model.ambient_dim, 2, np.random.default_rng(seed))
    q_float = [float(x) for x in q]
    expected = min(
        math.sqrt(sum((float(x) - y) ** 2 for x, y in zip(image, q_float)))
        for image in model.orbit(p)
    )
    assert model.leaf_pairs([p, p], [q, p], 1e-9)[1].tolist() == [expected, 0.0]


def _exact_orbit_same_leaf(model, p, q, tol):
    """The same-leaf predicate over the exact orbit of ``p``."""
    for image in model.orbit(p):
        if tol == 0:
            if all(x == y for x, y in zip(image, q)):
                return True
        elif sum((float(x) - float(y)) ** 2 for x, y in zip(image, q)) < tol * tol:
            return True
    return False


SAME_LEAF_GROUPS = {
    **BUNDLED_GROUPS,
    # a reflection that is not a signed permutation: its orbit stays exact
    "rational_reflection": group_closure([[[Fraction(3, 5), Fraction(4, 5)],
                                           [Fraction(4, 5), Fraction(-3, 5)]]]),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SAME_LEAF_GROUPS)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["mate", "other", "nudged"]), st.sampled_from([0, 1e-12, 1e-9, 1e-3, 0.5]))
def test_group_same_leaf_matches_exact_orbit(name, seed, kind, tol):
    model = SAME_LEAF_GROUPS[name]
    rng = np.random.default_rng(seed)
    p, q = rational_sphere_points(model.ambient_dim, 2, rng)
    if kind != "other":
        q = model.random_leaf_mate(p, rng)
    if kind == "nudged":
        q = (q[0] + Fraction(1, 10 ** 6),) + tuple(q[1:])
    assert model.same_leaf(p, q, tol) == _exact_orbit_same_leaf(model, p, q, tol)
    q_float = [float(x) for x in q]
    assert model.leaf_pairs([p], [q], tol)[1][0] == min(
        math.sqrt(sum((float(x) - y) ** 2 for x, y in zip(image, q_float)))
        for image in model.orbit(p)
    )


def _python_orbit_sq_distances(model, p, q):
    """Squared distances from ``q`` to the exact orbit of ``p`` (of its floats,
    unless every coordinate is rational), each a Python sum of ``**``
    squares: the reference for the array sums."""
    if not all(isinstance(x, (int, Fraction)) for x in p):
        p = [float(x) for x in p]
    q = [float(x) for x in q]
    return [sum((float(x) - y) ** 2 for x, y in zip(_mat_vec(g, tuple(p)), q))
            for g in model.elements]


ORBIT_GROUPS = {
    **BUNDLED_GROUPS,
    "b4": load_config(B4_CONFIG).build_model(),
    "mixed": GROUPS["mixed", EXACT],
    "rational": group_closure([REFLECTION, [[0, 1], [-1, 0]]]),
}
coordinates = st.one_of(
    st.floats(-3, 3),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ORBIT_GROUPS)), st.sampled_from(["rational", "normal", "drawn"]),
       st.integers(0, 2 ** 32 - 1), st.lists(coordinates, min_size=8, max_size=8))
def test_orbit_sq_distances_match_python_sums_bit_for_bit(name, kind, seed, coords):
    # sums in the same order and squares rounded by the same pow: equal bits,
    # off the sphere too
    model = ORBIT_GROUPS[name]
    d = model.ambient_dim
    rng = np.random.default_rng(seed)
    if kind == "rational":
        p, q = rational_sphere_points(d, 2, rng)
    elif kind == "normal":
        p, q = (tuple(row) for row in rng.standard_normal((2, d)).tolist())
    else:
        p, q = tuple(coords[:d]), tuple(coords[4:4 + d])
    got = model._orbit_sq_distances_many([p], [q])[0]
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(_python_orbit_sq_distances(model, p, q)).tobytes()


def test_orbit_sq_distances_round_squares_like_python():
    # x * x and Python's x ** 2 (the C library's pow) differ in the last bit
    # for about one x in 1,200, and an orbit of signed permutations holds at
    # most 2 d^2 distinct squares: many random pairs make such a square certain
    model = ORBIT_GROUPS["b3"]
    rng = np.random.default_rng(4)
    for _ in range(400):
        p, q = rng.standard_normal((2, 3)).tolist()
        got = model._orbit_sq_distances_many([p], [q])[0]
        assert got.tobytes() == np.array(_python_orbit_sq_distances(model, p, q)).tobytes()


class _Draw:
    """A stand-in generator whose ``integers(n, size)`` returns one fixed index."""

    def __init__(self, order, k):
        self.order, self.k = order, k

    def integers(self, n, size):
        assert n == self.order
        return np.full(size, self.k)


@pytest.mark.parametrize("name", [*sorted(ORBIT_GROUPS), "b3_float"])
def test_random_leaf_mate_is_the_drawn_element_times_the_point(name):
    model = GROUPS["b3", FLOAT] if name == "b3_float" else ORBIT_GROUPS[name]
    rng = np.random.default_rng(8)
    for p in rational_sphere_points(model.ambient_dim, 3, rng):
        if model.mode == FLOAT:
            p = tuple(float(x) for x in p)
        for k, g in enumerate(model.elements):
            assert model.random_leaf_mate(p, _Draw(model.order, k)) == _mat_vec(g, p)
    # one draw of ``integers(order)``, so the stream moves as it always did
    rng, reference = np.random.default_rng(9), np.random.default_rng(9)
    model.random_leaf_mate(p, rng)
    reference.integers(model.order)
    assert rng.bit_generator.state == reference.bit_generator.state


def _reference_float_mate(model, p, rng):
    """``random_leaf_mate`` of a float point as a Python loop per point."""
    if hasattr(model, "torus_rank"):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=model.torus_rank)
        out = []
        for j, weights in enumerate(model.weight_matrix):
            angle = float(sum(w * theta[t] for t, w in enumerate(weights)))
            c, s = math.cos(angle), math.sin(angle)
            x, y = p[2 * j], p[2 * j + 1]
            out.extend((c * x - s * y, s * x + c * y))
        return out + list(p[2 * model.n_planes:])
    g = model.elements[int(rng.integers(model.order))]
    if model._signed_table().others:
        return list(_mat_vec(g, p))
    # a signed permutation: each coordinate once, negated or not
    return [next(p[j] if x > 0 else -p[j] for j, x in enumerate(row) if x) for row in g]


FLOAT_MATE_MODELS = {
    **{name: ORBIT_GROUPS[name] for name in ("b3", "b4", "mixed", "rational")},
    "b3_float": GROUPS["b3", FLOAT],
    **{name: load_config(_CONFIG_DIR / f"{name}.json").build_model()
       for name in ("t2_full", "hopf", "circle12")},
    **{name: load_config(_CONFIG_DIR / f"{name}.json").build_model().symmetry
       for name in ("iso_g1", "iso_g3", "cartan_so3_g3")},
}


@pytest.mark.parametrize("name", sorted(FLOAT_MATE_MODELS))
def test_float_leaf_mates_match_per_point_mates(name):
    model = FLOAT_MATE_MODELS[name]
    points = sample_sphere_many(200, model.ambient_dim, np.random.default_rng(3))
    rng, reference = np.random.default_rng(4), np.random.default_rng(4)
    mates = model.leaf_mates(points, rng)
    want = np.array([_reference_float_mate(model, p, reference) for p in points.tolist()])
    assert mates.tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert model.leaf_mates(points[:0], rng).shape == (0, model.ambient_dim)


def test_same_leaf_group_antipodal():
    model = group_closure([[[-1, 0], [0, -1]]])
    assert model.same_leaf((0.3, -0.7), (-0.3, 0.7), 1e-12)
    assert not model.same_leaf((0.3, -0.7), (0.3, 0.7), 1e-12)


# -- torus models ----------------------------------------------------------------


def test_torus_reynolds_examples(t2_model):
    assert t2_model.reynolds(P("x1 * x3", 4)).is_zero
    assert t2_model.reynolds(P("x1^2", 4)) == P("1/2 * x1^2 + 1/2 * x2^2", 4)


def test_torus_reynolds_keeps_balanced_terms(hopf_model):
    # Re(z1 zbar2) is invariant for the diagonal circle
    invariant = P("x1 * x3 + x2 * x4", 4)
    assert hopf_model.reynolds(invariant) == invariant


def test_torus_reynolds_float_round_trip(t2_model):
    f = P("x1^2", 4, FLOAT)
    avg = t2_model.reynolds(f)
    assert avg.mode == FLOAT
    assert avg == P("0.5 * x1^2 + 0.5 * x2^2", 4, FLOAT)


def test_torus_reynolds_idempotent_degree_preserving(t2_model):
    rng = np.random.default_rng(11)
    for degree in (2, 3, 4, 6):
        f = random_homogeneous(4, degree, rng)
        avg = t2_model.reynolds(f)
        assert t2_model.reynolds(avg) == avg
        assert avg.is_zero or avg.homogeneous_degree() == degree
        lap = t2_model.reynolds(f.laplacian())
        assert avg.laplacian() == lap


@pytest.mark.parametrize("weights", [[[1.5], [1]], [[True], [1]], [[1], [Fraction(1, 2)]],
                                     [[math.nan], [1]], [[math.inf], [1]]])
def test_torus_refuses_weights_that_are_not_whole_numbers(weights):
    with pytest.raises(ConfigError):
        models.TorusModel(weights)


def test_torus_reads_whole_float_weights():
    assert models.TorusModel([[2.0], [1]]).weight_matrix == ((2,), (1,))


def test_torus_same_leaf_equal_plane_radii(t2_model):
    a, b = 0.6, 0.8
    assert t2_model.same_leaf((a, 0, b, 0), (0, a, 0, b), 1e-9)
    assert not t2_model.same_leaf((a, 0, b, 0), (b, 0, a, 0), 1e-9)


def test_hopf_same_leaf_needs_equal_phase_difference(hopf_model):
    p = (0.6, 0.0, 0.8, 0.0)
    theta = 1.1
    both = (
        0.6 * math.cos(theta), 0.6 * math.sin(theta),
        0.8 * math.cos(theta), 0.8 * math.sin(theta),
    )
    one = (0.6 * math.cos(theta), 0.6 * math.sin(theta), 0.8, 0.0)
    assert hopf_model.same_leaf(p, both, 1e-9)
    assert not hopf_model.same_leaf(p, one, 1e-9)


def test_weighted_circle_same_leaf(circle12_model):
    p = (0.6, 0.0, 0.8, 0.0)
    theta = 0.7
    good = (
        0.6 * math.cos(theta), 0.6 * math.sin(theta),
        0.8 * math.cos(2 * theta), 0.8 * math.sin(2 * theta),
    )
    bad = (
        0.6 * math.cos(theta), 0.6 * math.sin(theta),
        0.8 * math.cos(theta), 0.8 * math.sin(theta),
    )
    assert circle12_model.same_leaf(p, good, 1e-9)
    assert not circle12_model.same_leaf(p, bad, 1e-9)


def test_torus_kernel_computed_once_per_active_planes(monkeypatch):
    calls = []
    kernel = models.integer_left_kernel

    def counting(rows):
        calls.append(tuple(rows))
        return kernel(rows)

    monkeypatch.setattr(models, "integer_left_kernel", counting)
    model = models.TorusModel([[1, 0], [1, 1], [0, 2]], n_fix=1)
    rng = np.random.default_rng(12)
    points = [tuple(row) for row in sample_sphere_many(40, model.ambient_dim, rng).tolist()]
    # a point in the third plane only leaves one plane active
    points.append((0.0, 0.0, 0.0, 0.0, 0.6, 0.8, 0.0))
    for p in points:
        for q in points:
            model.same_leaf(p, q, 1e-9)
            model.leaf_pairs([p], [q], 0.0)
    assert len(calls) == len(set(calls)) == 2
    assert [weight for _, weight in model._kernel((0, 1, 2))] == [5]  # v = +-(2, -2, 1)


def test_torus_same_leaf_reflexive_symmetric(t2_model):
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = tuple(rng.normal(size=4))
        q = t2_model.random_leaf_mate(p, rng)
        assert t2_model.same_leaf(p, p, 1e-9)
        assert t2_model.same_leaf(p, q, 1e-7)
        assert t2_model.same_leaf(q, p, 1e-7)


def test_torus_exact_rational_mate(circle12_model):
    rng = np.random.default_rng(17)
    p = (Fraction(3, 5), Fraction(4, 5), Fraction(1, 2), Fraction(-1, 3))
    mate = circle12_model.random_leaf_mate(p, rng)
    assert all(isinstance(x, Fraction) for x in mate)
    # exact invariance of an invariant polynomial on the exact mate
    invariant = P("x1^2 + x2^2", 4)
    assert invariant.eval(mate) == invariant.eval(p)
    cubic = P("x1^2 * x3 + 2 * x1 * x2 * x4 - x2^2 * x3", 4)  # Re(z1^2 zbar2)
    assert cubic.eval(mate) == cubic.eval(p)


TORI = {
    "t2_full": ([[1, 0], [0, 1]], 0),
    "hopf": ([[1], [1]], 0),
    "circle12": ([[1], [2]], 0),
    "signed_with_fixed": ([[1, -2], [-3, 1]], 1),
}
# one model each, so that every example reuses the basic slices it caches
TORUS_MODELS = {name: models.TorusModel(weights, n_fix=n_fix) for name, (weights, n_fix) in TORI.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(TORI)),
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), min_size=5, max_size=5),
    st.booleans(),
)
def test_exact_torus_mate_matches_fraction_rotation(name, seed, coords, on_sphere):
    model = TORUS_MODELS[name]
    if on_sphere:
        p = rational_sphere_points(model.ambient_dim, 1, np.random.default_rng(seed))[0]
    else:
        # mixed denominators, with int and zero coordinates
        p = tuple(Fraction(a, b) if b > 1 else a for a, b in coords[:model.ambient_dim])
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    mate = model.random_leaf_mate(p, rng)
    expected = fraction_rotation_mate(model, p, reference_rng)
    assert mate == expected
    assert all(type(x) is Fraction for x in mate)
    # the same draws, in the same order
    assert rng.integers(0, 2 ** 62) == reference_rng.integers(0, 2 ** 62)


def _assert_matches_reference(average, expected):
    assert average.mode == expected.mode
    # equal terms, so float results match bit for bit, in descending grlex order
    assert dict(average.terms) == dict(expected.terms)
    assert [type(c) for c in average.terms.values()] == [type(expected.terms[e]) for e in average.terms]
    assert list(average.terms) == sorted(average.terms, key=grlex_key)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(TORI)),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=5, max_size=5),
            st.integers(-40, 40),
            st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 25]),
            st.floats(-1e3, 1e3, allow_nan=False),
        ),
        max_size=4,
    ),
    st.booleans(),
)
def test_torus_reynolds_matches_gaussian_fraction_expansion(name, raw_terms, as_float):
    model = TORUS_MODELS[name]
    dim = model.ambient_dim
    if as_float:
        terms = {tuple(expo[:dim]): x for expo, _, _, x in raw_terms}
    else:
        # mixed denominators; an all-zero exponent gives a constant term
        terms = {tuple(expo[:dim]): Fraction(n, d) for expo, n, d, _ in raw_terms}
    f = Polynomial(dim, terms, FLOAT if as_float else EXACT)
    _assert_matches_reference(model.reynolds(f), _gaussian_fraction_reynolds(model, f))


@pytest.mark.parametrize("name", sorted(TORI))
@pytest.mark.parametrize("text", ["0", "-7/3", "x1^2 * x2 + 5/6 * x1^2 - x1 * x2 + 1/4"])
def test_torus_reynolds_small_cases_match_gaussian_fraction_expansion(name, text):
    model = TORUS_MODELS[name]
    for mode in (EXACT, FLOAT):
        f = P(text, model.ambient_dim, mode)
        _assert_matches_reference(model.reynolds(f), _gaussian_fraction_reynolds(model, f))


def test_torus_reynolds_refuses_a_polynomial_of_another_dimension(t2_model):
    with pytest.raises(DimensionMismatch):
        t2_model.reynolds(P("x1^2 + x5^2", 5))


def test_group_transitivity_exact(b2_model):
    p = (Fraction(2, 3), Fraction(-1, 7))
    rng = np.random.default_rng(23)
    q = b2_model.random_leaf_mate(p, rng)
    r = b2_model.random_leaf_mate(q, rng)
    assert b2_model.same_leaf(p, r, 0)


# -- Cartan-Munzner admission ------------------------------------------------------


def test_munzner_linear():
    assert validate_munzner(P("x1", 3), 1) == 0


def test_munzner_quadric():
    F = P("x1^2 + x2^2 - x3^2 - x4^2", 4)
    assert validate_munzner(F, 2) == 0


def test_munzner_unbalanced_quadric_nonzero_c():
    # x1^2 + x2^2 - 3 x3^2 is not Munzner (gradient identity fails)
    with pytest.raises(NotCartanMunzner):
        validate_munzner(P("x1^2 + x2^2 - 3 * x3^2", 3), 2)
    # but a balanced quadric with unequal multiplicities has c != 0:
    # F = x1^2 - x2^2 - x3^2 on R^3 has laplacian -2 = c
    c = validate_munzner(P("x1^2 - x2^2 - x3^2", 3), 2)
    assert c == -2


def test_munzner_rejects_sabotage():
    with pytest.raises(NotCartanMunzner) as info:
        validate_munzner(P("x1^2", 4), 2)
    assert info.value.gradient_residual is not None
    # residual is |grad F|^2 - 4 r^2 = -4 (x2^2 + x3^2 + x4^2)
    residual = parse_polynomial(info.value.gradient_residual, 4)
    assert residual == radius_squared(4).scale(-4) + P("4 * x1^2", 4)


def test_munzner_planar_cubic():
    assert validate_munzner(P("x1^3 - 3 * x1 * x2^2", 2), 3) == 0


def test_munzner_rejects_inhomogeneous():
    with pytest.raises(NotCartanMunzner):
        validate_munzner(P("x1^2 + x2", 2), 2)


def test_munzner_float_tolerance():
    s3 = math.sqrt(3.0)
    text = (
        "-1 * x5^3 + 3 * x1^2 * x5 + 3 * x2^2 * x5 - 1.5 * x3^2 * x5 "
        f"- 1.5 * x4^2 * x5 + {1.5 * s3!r} * x1 * x3^2 - {1.5 * s3!r} * x1 * x4^2 "
        f"+ {3.0 * s3!r} * x2 * x3 * x4"
    )
    F = parse_polynomial(text, 5, FLOAT)
    assert validate_munzner(F, 3) == 0.0
    # perturb one coefficient beyond tolerance
    bad = F + Polynomial(5, {(0, 1, 1, 1, 0): 1e-6}, FLOAT)
    with pytest.raises(NotCartanMunzner):
        validate_munzner(bad, 3)


# -- isoparametric leaves -----------------------------------------------------------


def test_iso_same_leaf_level_predicate(iso_g2_model):
    e1 = (1.0, 0.0, 0.0, 0.0)
    e2 = (0.0, 1.0, 0.0, 0.0)
    assert iso_g2_model.same_leaf(e1, e2, 1e-9)
    e3 = (0.0, 0.0, 1.0, 0.0)
    assert not iso_g2_model.same_leaf(e1, e3, 1e-9)


def test_iso_same_leaf_requires_sphere(iso_g2_model):
    with pytest.raises(OffSphere):
        iso_g2_model.same_leaf((2.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1e-9)


def test_iso_leaf_pairs_check_sphere_and_dimension(iso_g2_model):
    points = sample_sphere_many(10, 4, np.random.default_rng(3))
    ps, qs = points[:5].copy(), points[5:].copy()
    same, distance = iso_g2_model.leaf_pairs(ps, qs, 1e-9)
    assert same.shape == distance.shape == (5,)
    # the first point off the sphere, in pair order (p0, q0, p1, q1, ...), is named
    qs[1] *= 3.0
    ps[3] *= 2.0
    norm = math.sqrt(sum(x ** 2 for x in qs[1].tolist()))
    with pytest.raises(OffSphere, match=f"point norm {norm!r}"):
        iso_g2_model.leaf_pairs(ps, qs, 1e-9)
    with pytest.raises(OffSphere, match="within 0.5$"):
        iso_g2_model.leaf_pairs(ps, qs, 0.5)
    for bad in (points[:, :3], [(1.0, 0.0, 0.0)], [(1.0, 0.0, 0.0, 0.0, 0.0)]):
        with pytest.raises(DimensionMismatch):
            iso_g2_model.leaf_pairs(bad, bad, 1e-9)
    with pytest.raises(DimensionMismatch):
        iso_g2_model.same_leaf((1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1e-9)
    empty = iso_g2_model.leaf_pairs(np.zeros((0, 4)), [], 1e-9)
    assert [a.shape for a in empty] == [(0,), (0,)]


def _exact_rows(rows):
    return PointBatch.of([tuple(Fraction(x) for x in row) for row in rows])


def _mates(points):
    return lambda model: model.leaf_mates(points, np.random.default_rng(1))


def _pairs(ps, qs, tol=1e-9):
    return lambda model: model.leaf_pairs(ps, qs, tol)


MALFORMED = {
    # the third coordinate used to be dropped: (True, 0.0)
    "group_pairs_extra": ("b2_model", _pairs([[0.6, 0.8, 5.0]], [[0.8, 0.6]])),
    "group_pairs_short": ("b2_model", _pairs([[0.6]], [[0.8]])),
    "group_pairs_exact_extra": ("b2_model", _pairs(_exact_rows([[1, 0, 0]]),
                                                   _exact_rows([[0, 1]]), 0)),
    # a width read off the shape: never converted, so no OverflowError
    "group_pairs_huge_extra": ("b2_model", _pairs(_exact_rows([[10 ** 400, 0, 0]]),
                                                  _exact_rows([[0, 1]]))),
    "group_mates_extra": ("b2_model", _mates(np.zeros((3, 3)))),
    "group_mates_exact_extra": ("b2_model", _mates(_exact_rows([[10 ** 400, 0, 1]]))),
    "torus_pairs_short": ("t2_model", _pairs([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])),
    # the extra coordinate used to be carried along, a short row to raise ValueError
    "torus_mates_extra": ("t2_model", _mates(np.zeros((2, 5)))),
    "torus_mates_short": ("t2_model", _mates(np.zeros((2, 3)))),
    "torus_mates_exact_short": ("t2_model", _mates(_exact_rows([[1, 0, 0]]))),
    "iso_pairs_ragged": ("iso_g2_model", _pairs([(1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
                                                [(1.0, 0.0, 0.0, 0.0)] * 2)),
    "iso_mates_extra": ("iso_g2_model", _mates(np.zeros((2, 5)))),
    # one second point used to be broadcast against two first points
    **{f"{kind}_pairs_counts": (fixture, _pairs(np.eye(d)[:2], np.eye(d)[:1]))
       for kind, fixture, d in (("group", "b2_model", 2), ("torus", "t2_model", 4),
                                ("iso", "iso_g2_model", 4))},
    # used to raise AttributeError on the missing symmetry
    "iso_mates_no_symmetry": (None, _mates(np.eye(4))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_batch_leaf_methods_refuse_malformed_points(request, case):
    fixture, call = MALFORMED[case]
    if fixture is None:
        with pytest.raises(ConfigError, match="no symmetry"):
            call(IsoparametricModel(P("x1^2 + x2^2 - x3^2 - x4^2", 4), 2))
    else:
        with pytest.raises(DimensionMismatch, match="coordinates|2 first points against 1"):
            call(request.getfixturevalue(fixture))


def test_leaf_average_of_constant_is_exact(iso_g2_model):
    p = sample_sphere(4, 5)
    one = Polynomial.constant(4, 1)
    est, se = iso_g2_model.leaf_average_mc(one, p, rng_seed=1, n=20_000)
    assert est == 1.0


def test_leaf_average_of_level_polynomial(iso_g2_model):
    p = sample_sphere(4, 12)
    assert abs(iso_g2_model.level_of(p)) < 0.9
    est, se = iso_g2_model.leaf_average_mc(iso_g2_model.F, p, rng_seed=2, n=100_000)
    assert abs(est - iso_g2_model.level_of(p)) <= max(3 * se, 3e-3)


def test_leaf_average_matches_torus_oracle(iso_g2_model, t2_model):
    rng = np.random.default_rng(31)
    f = random_homogeneous(4, 4, rng)
    oracle = t2_model.reynolds(f)
    p = sample_sphere(4, 100)
    assert abs(iso_g2_model.level_of(p)) < 1 - 2 * iso_g2_model.h
    est, se = iso_g2_model.leaf_average_mc(f, p, rng_seed=3, n=400_000)
    truth = float(oracle.eval([float(x) for x in p]))
    assert abs(est - truth) <= 4 * se


def test_leaf_average_refuses_near_focal(iso_g2_model):
    with pytest.raises(NearSingularLeaf):
        iso_g2_model.leaf_average_mc(
            Polynomial.constant(4, 1), (1.0, 0.0, 0.0, 0.0), rng_seed=0
        )


def test_leaf_average_small_sample_guard(iso_g2_model):
    p = sample_sphere(4, 5)
    guarded = IsoparametricModel(iso_g2_model.F, 2, min_ess=1000)
    with pytest.raises(EffectiveSampleTooSmall):
        guarded.leaf_average_mc(Polynomial.constant(4, 1), p, rng_seed=0, n=50)


def test_leaf_average_bitwise_reproducible(iso_g2_model):
    p = sample_sphere(4, 9)
    f = parse_polynomial("x1^2", 4)
    a = iso_g2_model.leaf_average_mc(f, p, rng_seed=7, n=50_000)
    b = iso_g2_model.leaf_average_mc(f, p, rng_seed=7, n=50_000)
    assert a == b
    c = iso_g2_model.leaf_average_mc(f, p, rng_seed=8, n=50_000)
    assert a != c


def test_stacked_rows_match_rows_alone(iso_g2_model):
    sampler = LevelSetSampler(iso_g2_model, 7, 20_000)
    polys = [P("x1^2", 4), P("x1 * x3 - 2 * x2^3 * x4", 4), P("1", 4)]
    values = np.stack([f.to_float().eval_many(sampler.points) for f in polys])
    levels = [-0.6, 0.0, 0.31]
    est, se = sampler.leaf_average_values(values, levels)
    assert est.shape == se.shape == (3, 3)
    for i, row in enumerate(values):
        alone_est, alone_se = sampler.leaf_average_values(row[None, :], levels)
        assert np.array_equal(est[i], alone_est[0])
        assert np.array_equal(se[i], alone_se[0])


@pytest.mark.parametrize("se_rows", [0, 1, 3, None])
def test_se_rows_keep_every_estimate_and_the_leading_ses(iso_g2_model, se_rows):
    sampler = LevelSetSampler(iso_g2_model, 7, 20_000)
    polys = [P("x1^2", 4), P("x1 * x3 - 2 * x2^3 * x4", 4), P("1", 4)]
    values = np.stack([f.to_float().eval_many(sampler.points) for f in polys])
    levels = [-0.6, 0.0, 0.31]
    est, se = sampler.leaf_average_values(values, levels)
    got_est, got_se = sampler.leaf_average_values(values, levels, se_rows)
    assert got_est.tobytes() == est.tobytes()
    assert got_se.shape == (3 if se_rows is None else se_rows, 3)
    assert got_se.tobytes() == se[:se_rows].tobytes()


def test_estimates_without_ses_keep_the_guards(iso_g2_model):
    sampler = LevelSetSampler(iso_g2_model, 11, 20_000)
    lv, h = sampler.level_values, iso_g2_model.h
    values = P("x1^2", 4).to_float().eval_many(sampler.points)[None, :]
    # the guards of every level, not only of the first
    for level, message in ((-1.0 - 1.5 * h, "no samples"), (lv[0] - 0.99 * h, "effective")):
        with pytest.raises(EffectiveSampleTooSmall, match=message):
            sampler.leaf_average_values(values, [0.0, float(level)], se_rows=0)


def test_sorted_cloud_is_column_major(iso_g2_model):
    sampler = LevelSetSampler(iso_g2_model, 5, 20_000)
    points = sampler.points
    assert points.shape == (20_000, 4) and points.flags.f_contiguous
    assert not points.flags.writeable
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
    cloud = sample_sphere_many(20_000, 4, rng)
    order = np.argsort(iso_g2_model.F.eval_many(cloud))
    assert points.tobytes() == np.take(cloud, order, axis=0).tobytes()
    rows = np.ascontiguousarray(points)
    for f in (P("x1^2", 4), P("x1 * x3 - 2 * x2^3 * x4", 4), random_homogeneous(4, 4, rng, n_terms=35)):
        f = f.to_float()
        assert f.eval_many(points).tobytes() == f.eval_many(rows).tobytes()


def _full_scan_leaf_average(sampler, values, level, min_ess):
    """The estimator before windowing: the weights, the sums and the
    jackknife of one level run over all N samples.  Returns the full-length
    weights, the estimates and the SEs of each row."""
    h, n = sampler.model.h, sampler.count
    u = (sampler.level_values - level) / h
    w = sampler.grad_norms * np.where(np.abs(u) < 1.0, 1.0 - u * u, 0.0)
    sw = float(w.sum())
    if sw <= 0.0:
        raise EffectiveSampleTooSmall("no samples in the kernel window")
    ess = sw * sw / float((w * w).sum())
    if ess < min_ess:
        raise EffectiveSampleTooSmall(f"effective sample size {ess:.1f} below minimum {min_ess}")
    estimates, ses = [], []
    for row in values:
        wf = w * row
        swf = float(wf.sum())
        loo = (swf - wf) / (sw - w)
        centered = loo - loo.mean()
        estimates.append(swf / sw)
        ses.append(math.sqrt((n - 1) / n * float(np.dot(centered, centered))))
    return w, np.array(estimates), np.array(ses)


def _outcome(estimate, *args):
    try:
        return estimate(*args)
    except EffectiveSampleTooSmall as exc:
        return str(exc).split(" ")[0]  # "no" (empty window) or "effective"


def test_windowed_estimator_matches_full_scan(iso_g2_model):
    sampler = LevelSetSampler(iso_g2_model, 5, 20_000)
    lv, h, n = sampler.level_values, iso_g2_model.h, sampler.count
    assert np.all(np.diff(lv) >= 0.0)
    polys = [P("x1^2", 4), P("x1 * x3 - 2 * x2^3 * x4", 4), P("1", 4)]
    values = np.stack([f.to_float().eval_many(sampler.points) for f in polys])
    rng = np.random.default_rng(0)
    edges = rng.integers(0, n, size=6)
    levels = [
        *rng.uniform(-1.2, 1.2, size=30),
        lv[0], lv[0] + 0.5 * h, lv[-1], lv[-1] - 0.5 * h,  # windows at the ends
        *(lv[edges] + h), *(lv[edges] - h),  # a support edge on a sample
        -1.0 - 1.5 * h, 1.0 + 1.5 * h,  # empty windows
    ]
    seen = set()
    for level in map(float, levels):
        reference = _outcome(_full_scan_leaf_average, sampler, values, level, iso_g2_model.min_ess)
        windowed = _outcome(sampler.leaf_average_values, values, [level])
        if isinstance(reference, str):
            assert windowed == reference, level
            seen.add(reference)
            continue
        w_full, ref_est, ref_se = reference
        est, se = windowed
        window = sampler.window(level)
        # the same samples carry weight, with the same weights
        assert np.array_equal(np.flatnonzero(np.abs((lv - level) / h) < 1.0),
                              np.arange(window.start, window.stop))
        assert np.array_equal(sampler.weights(level), w_full[window])
        np.testing.assert_allclose(est[:, 0], ref_est, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(se[:, 0], ref_se, rtol=1e-12, atol=0.0)
        seen.add("first" if window.start == 0 else "last" if window.stop == n else "inner")
    assert seen == {"no", "effective", "first", "last", "inner"}


def test_level_restricted_sampler_matches_full_cloud(iso_g2_model):
    # a sampler built for one level draws only that level's band, with the
    # law of the full cloud's band: its estimates agree with the full cloud's
    # within their SEs, at 3 levels x 20 seed pairs x 2 rows; the gate is a
    # Bonferroni bound at family-wise level 1e-4
    polys = [P("x1^2", 4), P("x1 * x3 - 2 * x2^3 * x4", 4)]
    levels = [-0.6, 0.0, 0.31]
    zs = []
    for seed in range(20):
        full = LevelSetSampler(iso_g2_model, seed, 20_000)
        full_values = np.stack([f.to_float().eval_many(full.points) for f in polys])
        full_est, full_se = full.leaf_average_values(full_values, levels)
        for j, level in enumerate(levels):
            band = LevelSetSampler(iso_g2_model, 1_000 + seed, 20_000, level=level)
            assert band.count == full.count
            assert len(band.points) < len(full.points) // 5
            values = np.stack([f.to_float().eval_many(band.points) for f in polys])
            est, se = band.leaf_average_values(values, [level])
            zs.extend((est[:, 0] - full_est[:, j]) / np.hypot(se[:, 0], full_se[:, j]))
    limit = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * len(zs)))
    assert max(map(abs, zs)) < limit, zs
    # the guard outcomes that do not depend on the draw: an empty window
    # beyond the focal levels, and an ESS floor above the sample count
    h = iso_g2_model.h
    values = np.zeros((1, 0))
    for level in (-1.0 - 1.5 * h, 1.0 + 1.5 * h):
        band = LevelSetSampler(iso_g2_model, 11, 20_000, level=level)
        assert len(band.points) == 0
        with pytest.raises(EffectiveSampleTooSmall, match="no samples"):
            band.leaf_average_values(values, [level])
    guarded = IsoparametricModel(iso_g2_model.F, 2, min_ess=20_001)
    band = LevelSetSampler(guarded, 11, 20_000, level=0.2)
    values = P("x1^2", 4).to_float().eval_many(band.points)[None, :]
    with pytest.raises(EffectiveSampleTooSmall, match="effective"):
        band.leaf_average_values(values, [0.2])


def test_restricted_cloud_counts_all_samples_and_follows_its_seed(iso_g2_model):
    for count in (0, 1_000, 2 * 2**15 + 777):
        for level in (-0.4, 0.05, 0.7):
            cloud = LevelSetSampler(iso_g2_model, 13, count, level=level)
            again = LevelSetSampler(iso_g2_model, 13, count, level=level)
            other = LevelSetSampler(iso_g2_model, 14, count, level=level)
            assert cloud.count == again.count == other.count == count
            assert cloud.points.tobytes() == again.points.tobytes(), (count, level)
            assert cloud.level_values.tobytes() == again.level_values.tobytes(), (count, level)
            if count == 0:
                assert cloud.points.shape == (0, 4)
                continue
            assert cloud.points.tobytes() != other.points.tobytes(), (count, level)
            assert cloud.level_values.tobytes() != other.level_values.tobytes(), (count, level)


def test_million_sample_leaf_average_draws_only_its_band(iso_g2_model, monkeypatch):
    # 10^6 samples of R^4 are 32 MB of points alone; the band cloud draws and
    # holds only the ~5% of samples in the level's kernel support
    import tracemalloc
    drawn = []
    draw = models.sample_sphere_many

    def counted(count, ambient_dim, rng):
        drawn.append(count)
        return draw(count, ambient_dim, rng)

    monkeypatch.setattr(models, "sample_sphere_many", counted)
    f = P("x1^2", 4)
    p = sample_sphere(4, 100)
    n = 10**6
    tracemalloc.start()
    try:
        iso_g2_model.leaf_average_mc(f, p, rng_seed=3, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # F is uniform on [-1, 1] on this sphere, so the band of half-width
    # ``reach`` around the level has probability ``reach``
    h = iso_g2_model.h
    band = h + 2.0 * models._window_margin(h)
    assert sum(drawn) <= n * band + 6.0 * math.sqrt(n * band * (1.0 - band))


def test_sampler_reuse_matches_direct_call(iso_g2_model):
    f = parse_polynomial("x1^2", 4)
    p = sample_sphere(4, 9)
    level = iso_g2_model.level_of(p)
    sampler = LevelSetSampler(iso_g2_model, 7, 50_000, level=level)
    direct = iso_g2_model.leaf_average_mc(f, p, rng_seed=7, n=50_000)
    assert sampler.leaf_average(f, level) == direct


@pytest.mark.parametrize("n", [0, -5, 2.0, True, "100", 10**6 + 0.5])
def test_leaf_average_refuses_a_sample_count_that_is_not_a_positive_int(iso_g2_model, n):
    with pytest.raises(ValueError, match=r"^n must be a positive int"):
        iso_g2_model.leaf_average_mc(P("x1^2", 4), sample_sphere(4, 9), rng_seed=1, n=n)


def test_leaf_average_takes_numpy_sample_counts(iso_g2_model):
    f, p = P("x1^2", 4), sample_sphere(4, 9)
    assert iso_g2_model.leaf_average_mc(f, p, rng_seed=1, n=np.int64(20_000)) == \
        iso_g2_model.leaf_average_mc(f, p, rng_seed=1, n=20_000)


def test_symmetry_must_preserve_levels():
    F = P("x1^2 + x2^2 - x3^2 - x4^2", 4)
    # swapping x1 and x3 flips the sign of F, so it is not a level symmetry
    swap13 = group_closure([[
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
    ]])
    with pytest.raises(ValueError):
        IsoparametricModel(F, 2, symmetry=swap13)


# -- sphere sampling -----------------------------------------------------------------


def test_sample_sphere_unit_norm():
    p = sample_sphere(5, 42)
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", range(1, 13))
def test_row_norms_match_numpy_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    points = rng.standard_normal((20_000, dim)) * np.exp(rng.uniform(-30, 30, size=(20_000, 1)))
    got = models._row_norms(points)
    assert np.array_equal(got.view(np.int64), np.linalg.norm(points, axis=1).view(np.int64))


def test_sample_sphere_deterministic():
    assert np.array_equal(sample_sphere(3, 1), sample_sphere(3, 1))


def test_sample_sphere_second_moment():
    rng = np.random.default_rng(0)
    pts = sample_sphere_many(100_000, 3, rng)
    values = pts[:, 0] ** 2
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - 1.0 / 3.0) <= 3 * se
