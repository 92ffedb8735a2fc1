"""Integer numerators over one denominator against a term-dict reference.

``Polynomial`` keeps exact coefficients as Python-int numerators over one
reduced denominator.  Hypothesis draws exact polynomials with rational
coefficients, shared keys and cancelling sums, and every ring operation, the
pullback by ``compose_with_matrix`` (with F4's reflection ``I - J/2``, and
random signed permutations, whose terms are relabelled) and the sphere
pairing must equal the ``Fraction`` reference in ``util``: the same values,
``Fraction`` values from ``.terms``, and the same term order.  Float
polynomials run through the same reference loops and must match bit for bit.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafavg import EXACT, FLOAT, Polynomial
from leafavg.models import compose_with_matrix
from leafavg.polynomials import sphere_inner, sphere_mean

from util import (ref_add, ref_compose, ref_laplacian, ref_mul, ref_neg, ref_partial, ref_pow,
                  ref_scale, ref_sphere_mean)

# few exponents and coefficients, so that keys repeat and sums cancel
COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3, 6)]
HALF_REFLECTION = [[Fraction(1, 2) if i == j else Fraction(-1, 2) for j in range(4)]
                   for i in range(4)]
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def term_dicts(draw, dim=2, max_exp=2, max_terms=6):
    """A ``Fraction`` term dict with up to ``max_terms`` draws of an exponent
    tuple and a coefficient (a repeated key keeps its last coefficient)."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, max_exp)) for _ in range(dim))
        terms[expo] = draw(st.sampled_from(COEFFS))
    return terms


def _check(result, reference, mode=EXACT):
    """``result`` holds ``reference``'s terms in its order, with ``Fraction``
    values (float values bit for bit in float mode), in lowest terms."""
    assert result.mode == mode
    if mode == EXACT:
        assert list(result.terms.items()) == list(reference.items())
        assert all(type(c) is Fraction for c in result.terms.values())
        assert result._den > 0 and all(type(n) is int and n for n in result._nums.values())
        assert math.gcd(result._den, *result._nums.values()) == 1
    else:
        assert [(e, c.hex()) for e, c in result.terms.items()] == [
            (e, float(c).hex()) for e, c in reference.items()]
        assert result._den == 1
    assert result == Polynomial(result.ambient_dim, reference, mode)


def _poly(terms, dim=2, mode=EXACT):
    if mode == FLOAT:
        terms = {e: float(c) for e, c in terms.items()}
    return Polynomial(dim, terms, mode), terms


@SETTINGS
@given(term_dicts(), term_dicts(), st.booleans(), st.sampled_from([EXACT, FLOAT]))
def test_ring_operations_match_the_reference(a, b, cancel, mode):
    if cancel:  # b takes back some of a's terms, with some of its own
        b = {**b, **{e: -c for i, (e, c) in enumerate(a.items()) if i % 2 == 0}}
    (p, a), (q, b) = _poly(a, mode=mode), _poly(b, mode=mode)
    _check(p + q, ref_add(a, b), mode)
    _check(-p, ref_neg(a), mode)
    _check(p - q, ref_add(a, ref_neg(b)), mode)
    _check(p * q, ref_mul(a, b), mode)
    _check((p + q) * (p - q), ref_mul(ref_add(a, b), ref_add(a, ref_neg(b))), mode)
    one = Fraction(1) if mode == EXACT else 1.0
    for n in range(4):
        _check(p ** n, ref_pow(a, n, 2, one), mode)
    for i in range(2):
        _check(p.partial(i), ref_partial(a, i), mode)
    _check(p.laplacian(), ref_laplacian(a, 2), mode)


@SETTINGS
@given(term_dicts(), st.sampled_from([0, 1, -1, 2, Fraction(-3, 4), Fraction(6, 5)]))
def test_scale_matches_the_reference(a, scalar):
    p, a = _poly(a)
    _check(p.scale(scalar), ref_scale(a, Fraction(scalar)))
    p, a = _poly(a, mode=FLOAT)
    _check(p.scale(float(scalar)), ref_scale(a, float(scalar)), FLOAT)


@pytest.mark.parametrize("matrix", [
    HALF_REFLECTION,
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # plain ints
    [[Fraction(3, 5), Fraction(-4, 5), 0, 0], [Fraction(4, 5), Fraction(3, 5), 0, 0],
     [0, 0, 1, 0], [0, 0, 0, -1]],
])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=term_dicts(dim=4, max_exp=2, max_terms=5))
def test_compose_with_matrix_matches_the_reference(matrix, a):
    p, a = _poly(a, dim=4)
    fractions = [[Fraction(x) for x in row] for row in matrix]
    _check(compose_with_matrix(p, matrix), ref_compose(a, fractions, 4))
    p, a = _poly(a, dim=4, mode=FLOAT)
    floats = [[float(x) for x in row] for row in matrix]
    _check(compose_with_matrix(p, floats), ref_compose(a, floats, 4, 1.0), FLOAT)


@st.composite
def signed_permutations(draw, dim=4):
    """A signed permutation matrix, ``(M x)_i = s_i x_(perm_i)``, with every
    sign -1 or with random signs."""
    perm = draw(st.permutations(range(dim)))
    signs = draw(st.just([-1] * dim) | st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    return [[signs[i] if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]


@SETTINGS
@given(a=term_dicts(dim=4, max_exp=3, max_terms=8), matrix=signed_permutations())
def test_signed_permutation_pullback_matches_the_reference(a, matrix):
    # the relabelled terms: the expansion's values and order, exact and float
    p, a = _poly(a, dim=4)
    _check(compose_with_matrix(p, matrix), ref_compose(a, [[Fraction(x) for x in row] for row in matrix], 4))
    p, a = _poly(a, dim=4, mode=FLOAT)
    floats = [[float(x) for x in row] for row in matrix]
    _check(compose_with_matrix(p, floats), ref_compose(a, floats, 4, 1.0), FLOAT)


@SETTINGS
@given(term_dicts(dim=3, max_exp=3), term_dicts(dim=3, max_exp=3))
def test_sphere_pairing_matches_the_reference(a, b):
    (p, a), (q, b) = _poly(a, dim=3), _poly(b, dim=3)
    mean, inner = sphere_mean(p), sphere_inner(p, q)
    assert type(mean) is Fraction and mean == ref_sphere_mean(a, 3)
    assert type(inner) is Fraction and inner == ref_sphere_mean(ref_mul(a, b), 3)


def test_a_key_that_cancels_and_comes_back_moves_to_the_end():
    # x1 x2 gets 1/2 * 2, then 1 * -1 (its sum cancels and the key goes),
    # then 1/3 * 3 (it comes back, last)
    a = {(1, 0): Fraction(1, 2), (0, 1): Fraction(1), (1, 1): Fraction(1, 3)}
    b = {(0, 1): Fraction(2), (1, 0): Fraction(-1), (0, 0): Fraction(3)}
    p = Polynomial(2, a) * Polynomial(2, b)
    _check(p, ref_mul(a, b))
    assert list(p.terms) == [(2, 0), (1, 0), (0, 2), (0, 1), (1, 2), (2, 1), (1, 1)]
