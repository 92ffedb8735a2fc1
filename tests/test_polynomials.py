import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leafavg import (
    EXACT,
    FLOAT,
    CoefficientTooLong,
    LeafavgError,
    NonFiniteCoefficient,
    Polynomial,
    PolynomialParseError,
    DimensionMismatch,
    ScalarModeMismatch,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    radius_squared,
    rationalize,
    sphere_inner,
    sphere_mean,
    sphere_norm,
)
from leafavg.models import sample_sphere_many

from util import euler_apply, exact_polys, random_homogeneous


def P(text, dim, mode=EXACT):
    return parse_polynomial(text, dim, mode)


# -- evaluation ---------------------------------------------------------------


def test_eval_square_sum():
    assert P("x1^2 + x2^2", 2).eval((3, 4)) == 25


def test_eval_unit_vector():
    quadric = P("x1^2 + x2^2 - x3^2 - x4^2", 4)
    assert quadric.eval((1, 0, 0, 0)) == 1
    assert quadric.eval((0, 0, 1, 0)) == -1


def test_eval_zero_polynomial():
    assert Polynomial.zero(3).eval((5, 7, 9)) == 0


def test_eval_exact_rational_point():
    p = P("1/3 * x1^2", 1)
    value = p.eval((Fraction(1, 2),))
    assert value == Fraction(1, 12)
    assert isinstance(value, Fraction)


def test_eval_many_matches_eval():
    rng = np.random.default_rng(0)
    p = random_homogeneous(3, 4, rng)
    pts = rng.normal(size=(20, 3))
    vectorized = p.eval_many(pts)
    for row, value in zip(pts, vectorized):
        assert math.isclose(float(p.eval(tuple(row))), value, rel_tol=1e-12, abs_tol=1e-12)


def _eval_many_per_term(p, points):
    """Reference for ``eval_many``: each term is the product, left to right,
    of its coefficient and its variables' powers, each power the product of
    ``e`` copies of the coordinate."""
    out = np.zeros(len(points))
    for expo, coeff in p.terms.items():
        factors = [np.full(len(points), float(coeff))]
        for i, e in enumerate(expo):
            if e:
                factors.append(np.prod(np.stack([points[:, i]] * e), axis=0))
        out += np.prod(np.stack(factors), axis=0)
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(lambda dim: exact_polys(dim, max_degree=4)),
    st.sampled_from([EXACT, FLOAT]),
    st.booleans(),
    st.integers(0, 2 ** 32 - 1),
)
@example(Polynomial.zero(2), FLOAT, False, 0)  # the zero polynomial
@example(Polynomial.zero(3), EXACT, True, 1)  # a constant
def test_eval_many_is_bitwise_the_per_term_product(p, mode, with_constant, seed):
    if with_constant:
        p = p + Polynomial.constant(p.ambient_dim, Fraction(-7, 3))
    if mode == FLOAT:
        p = p.to_float()
    points = np.random.default_rng(seed).normal(size=(33, p.ambient_dim))
    values = p.eval_many(points)
    assert values.shape == (33,)
    assert np.array_equal(values, _eval_many_per_term(p, points))


def _random_eval_case(rng):
    """A polynomial in 1-6 variables with exponents up to 5 (exact or float
    coefficients, maybe a constant term, maybe zero) and float rows with
    negative entries, +-0.0 and +-1.0."""
    dim = int(rng.integers(1, 7))
    terms = {}
    for _ in range(int(rng.integers(0, 7))):
        expo = tuple(int(e) for e in rng.integers(0, 6, size=dim))
        terms[expo] = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 30)))
    if rng.random() < 0.5:
        terms[(0,) * dim] = Fraction(int(rng.integers(-9, 10)), 7)
    p = Polynomial(dim, terms)
    if rng.random() < 0.5:
        p = p.to_float()
    rows = rng.normal(size=(100, dim)) * 10.0 ** rng.integers(-3, 3, size=(100, dim))
    specials = np.array([0.0, -0.0, 1.0, -1.0])
    mask = rng.random(size=rows.shape) < 0.15
    rows[mask] = rng.choice(specials, size=int(mask.sum()))
    return p, rows


def test_eval_rows_is_eval_bit_for_bit():
    rng = np.random.default_rng(2015)
    checked = 0
    for _ in range(300):
        p, rows = _random_eval_case(rng)
        expected = np.array([float(p.eval(row)) for row in rows.tolist()])
        got = p.eval_rows(rows)
        assert got.shape == (len(rows),)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), p
        checked += len(rows)
    assert checked == 30_000
    for p in (Polynomial.zero(3), Polynomial.zero(2, FLOAT), P("-5/3", 2)):
        rows = np.array([[-0.0, 0.0, 2.0][:p.ambient_dim], [1.5, -2.5, 0.0][:p.ambient_dim]])
        expected = np.array([float(p.eval(row)) for row in rows.tolist()])
        assert np.array_equal(p.eval_rows(rows).view(np.int64), expected.view(np.int64))


def test_eval_rows_shapes():
    p = P("x1^3 * x2 - 2 * x2^2", 2)
    assert p.eval_rows(np.zeros((0, 2))).shape == (0,)
    for bad in (np.zeros((4, 3)), np.zeros(2), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            p.eval_rows(bad)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        P("x1", 2).eval((1,))


# -- ring operations ----------------------------------------------------------


def test_binomial_square():
    x_plus_y = P("x1 + x2", 2)
    assert x_plus_y * x_plus_y == P("x1^2 + 2 * x1 * x2 + x2^2", 2)


def test_additive_identity():
    p = P("x1^2 - 3 * x2", 2)
    assert p + Polynomial.zero(2) == p


def test_scale_by_zero():
    assert P("x1^2", 2).scale(0).is_zero


def test_mode_mismatch_rejected():
    with pytest.raises(ScalarModeMismatch):
        P("x1", 2) + P("x1", 2, FLOAT)


def test_dim_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        P("x1", 2) * P("x1", 3)


def test_no_implicit_float_in_exact_mode():
    with pytest.raises(ScalarModeMismatch):
        Polynomial(2, {(1, 0): 0.5}, EXACT)


def test_power():
    p = P("x1 + 1", 1)
    assert p ** 3 == P("x1^3 + 3 * x1^2 + 3 * x1 + 1", 1)
    assert (p ** 0) == Polynomial.constant(1, 1)


# -- calculus -----------------------------------------------------------------


def test_gradient_power_rule():
    grad = P("x1^2 + x2^2", 2).gradient()
    assert grad[0] == P("2 * x1", 2)
    assert grad[1] == P("2 * x2", 2)


def test_gradient_of_constant():
    grad = Polynomial.constant(3, 7).gradient()
    assert all(g.is_zero for g in grad)


def test_quadric_gradient_norm_squared():
    # |grad F|^2 for the signature quadric expands to 4 r^2 (degree 2 case
    # of the g^2 r^(2g-2) identity); oracle is the hand expansion
    quadric = P("x1^2 + x2^2 - x3^2 - x4^2", 4)
    grad_sq = Polynomial.zero(4)
    for part in quadric.gradient():
        grad_sq = grad_sq + part * part
    assert grad_sq == radius_squared(4).scale(4)


def test_laplacian_examples():
    assert P("x1^2 + x2^2", 2).laplacian() == Polynomial.constant(2, 4)
    assert P("x1^2 + x2^2 - x3^2 - x4^2", 4).laplacian().is_zero
    assert P("x1^3", 1).laplacian() == P("6 * x1", 1)


# -- monomial bookkeeping -------------------------------------------------------


def test_monomial_basis_two_vars_degree_two():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_monomial_basis_counts():
    assert len(monomial_basis(4, 2)) == 10
    assert monomial_basis(1, 5) == [(5,)]


# -- sphere moments -------------------------------------------------------------


def test_sphere_mean_circle():
    assert sphere_mean(P("x1^2", 2)) == Fraction(1, 2)
    assert sphere_mean(P("x1^4", 2)) == Fraction(3, 8)


def test_sphere_mean_odd_vanishes():
    assert sphere_mean(P("x1 * x2", 2)) == 0
    assert sphere_mean(P("x1^3 * x2^2", 3)) == 0


def test_sphere_mean_s2():
    assert sphere_mean(P("x1^2", 3)) == Fraction(1, 3)


def test_sphere_mean_matches_monte_carlo():
    rng = np.random.default_rng(7)
    for trial in range(3):
        p = random_homogeneous(3, int(rng.integers(1, 7)), rng)
        exact = float(sphere_mean(p))
        samples = p.eval_many(sample_sphere_many(200_000, 3, rng))
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - exact) <= 3 * se + 1e-12


def test_sphere_inner_is_product_mean():
    p = P("x1", 2)
    q = P("x1^3", 2)
    assert sphere_inner(p, q) == sphere_mean(P("x1^4", 2))


# -- rationalize ----------------------------------------------------------------


def test_rationalize_examples():
    p = Polynomial(1, {(2,): 0.49999998}, FLOAT)
    cleaned, worst = rationalize(p, 10)
    assert cleaned == P("1/2 * x1^2", 1)
    assert worst < 1e-7

    zero, worst = rationalize(Polynomial(1, {(1,): 0.0}, FLOAT), 10)
    assert zero.is_zero and worst == 0.0

    third, _ = rationalize(Polynomial(1, {(1,): 0.333333}, FLOAT), 4)
    assert third == P("1/3 * x1", 1)


# -- text format ----------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "x1^2 + 2 * x1 * x2 + x2^2",
    "3/4 * x1^2 * x2 - x3^4 + 5",
    "-x1 + 1/2",
    "0",
])
def test_parse_format_roundtrip(text):
    p = parse_polynomial(text, 4)
    assert parse_polynomial(format_polynomial(p), 4) == p


def test_parse_whitespace_insensitive():
    assert P(" x1 ^2+   2*x1* x2 ", 2) == P("x1^2 + 2 * x1 * x2", 2)


def test_parse_decimal_exactly_in_exact_mode():
    assert P("0.5 * x1", 1) == P("1/2 * x1", 1)


def test_float_overflow_is_parse_error():
    assert P("1e300 * x1", 1, FLOAT).coefficient((1,)) == 1e300
    with pytest.raises(PolynomialParseError):
        parse_polynomial("1e400 * x1", 1, FLOAT)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_float_mode_rejects_non_finite_coefficients(value):
    with pytest.raises(NonFiniteCoefficient):
        Polynomial(1, {(1,): value}, FLOAT)


def test_float_scale_drops_underflow():
    assert Polynomial(1, {(1,): 1e-200}, FLOAT).scale(1e-200).is_zero


def test_parse_errors():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x9", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 +", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^x2", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 x2", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 + * x2", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("2/0 * x1", 2)


def test_format_is_graded_lex():
    p = P("x2 + x1^2 + x1 * x2", 2)
    assert format_polynomial(p) == "x1^2 + x1 * x2 + x2"


def test_format_coefficient_past_the_digit_limit_is_a_leafavg_error():
    # Python writes integers of at most 4300 digits as text
    assert format_polynomial(P("1e4299 * x1", 1)) == "1" + "0" * 4299 + " * x1"
    for text in ("1e4300 * x1", "1e-4300 * x1", "x2 - 3/7e5000"):
        with pytest.raises(CoefficientTooLong, match="4300 digits") as caught:
            format_polynomial(P(text, 2))
        assert isinstance(caught.value, LeafavgError)


# -- the text grammar, generated -----------------------------------------------------
#
# A term is one or more signs (the first term may have none), then factors joined by
# '*'; a factor is a number with an optional /number, or x<i> with an optional ^<digits>.
# The strategies below build texts from that grammar together with the value each
# piece denotes, so the expected polynomial never comes from the parser.

_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\n"])


@st.composite
def _number_text(draw):
    """A number in the text format and its exact value."""
    whole = draw(st.integers(0, 999))
    digits = draw(st.text("0123456789", min_size=1, max_size=3))
    frac = Fraction(int(digits), 10 ** len(digits))
    exponent = draw(st.integers(-4, 4))
    return draw(st.sampled_from([
        (str(whole), Fraction(whole)),
        (f"{whole}.{digits}", whole + frac),
        (f".{digits}", frac),
        (f"{whole}.", Fraction(whole)),
        (f"{whole}{draw(st.sampled_from('eE'))}{exponent}", whole * Fraction(10) ** exponent),
        (f"{whole}.{digits}e+{abs(exponent)}", (whole + frac) * 10 ** abs(exponent)),
    ]))


@st.composite
def _factor_text(draw, dim):
    """A factor and what it contributes: (text, coefficient, exponent vector)."""
    expo = [0] * dim
    if draw(st.booleans()):
        text, value = draw(_number_text())
        if draw(st.booleans()):
            den_text, den = draw(_number_text().filter(lambda n: n[1] != 0))
            text, value = f"{text}{draw(_SPACE)}/{draw(_SPACE)}{den_text}", value / den
        return text, value, expo
    i = draw(st.integers(0, dim - 1))
    power = draw(st.one_of(st.none(), st.integers(0, 3)))
    expo[i] = 1 if power is None else power
    if power is None:
        return f"x{i + 1}", Fraction(1), expo
    return f"x{i + 1}{draw(_SPACE)}^{draw(_SPACE)}{power}", Fraction(1), expo


@st.composite
def polynomial_texts(draw):
    """``(dim, text, terms)``: a valid text and the exact term map it denotes."""
    dim = draw(st.sampled_from([1, 2, 3]))
    terms, pieces = {}, [draw(_SPACE)]
    term_count = draw(st.integers(1, 5))
    for t in range(term_count):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=0 if t == 0 else 1, max_size=3))
        pieces.append("".join(sign + draw(_SPACE) for sign in signs))
        coeff, expo, factors = Fraction((-1) ** signs.count("-")), [0] * dim, []
        for _ in range(draw(st.integers(1, 3))):
            text, value, factor_expo = draw(_factor_text(dim))
            factors.append(text)
            coeff *= value
            expo = [a + b for a, b in zip(expo, factor_expo)]
        pieces.append(f"{draw(_SPACE)}*{draw(_SPACE)}".join(factors) + draw(_SPACE))
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coeff
    return dim, "".join(pieces), terms


@settings(max_examples=300, deadline=None)
@given(polynomial_texts())
@example((2, "x1^2 - 3/4*x1 * x2 + x1^2 -- 2.5e-1 * x2 * x1", {(2, 0): 2, (1, 1): -Fraction(1, 2)}))
@example((1, " + .5 * x1 - - x1 ^ 0 - 1. ", {(1,): Fraction(1, 2)}))
def test_parse_generated_text(case):
    dim, text, terms = case
    assert parse_polynomial(text, dim) == Polynomial(dim, terms)
    assert parse_polynomial(text, dim, FLOAT) == Polynomial(
        dim, {e: float(c) for e, c in terms.items()}, FLOAT)


@pytest.mark.parametrize("text, message, column", [
    # a sign with no term after it
    ("x1 + -", "expected a number or a variable", 7),
    # two factors with no '*' between them
    ("2 x1", "expected '*', '+' or '-'", 3),
    ("x1^2 .5", "expected '*', '+' or '-'", 6),
    # a '/' with no number after it
    ("3/ * x1", "expected denominator", 1),
    ("x1 + 3 /", "expected denominator", 6),
    # a '^' with no digits after it
    ("x1^2.5", "expected integer exponent", 1),
    ("x2 ^ -1", "expected integer exponent", 1),
    ("x1^", "expected integer exponent", 1),
    # a token out of place: parentheses, '^' on a number, '*' with no factor
    ("(x1 + x2)", "expected a number or a variable", 1),
    ("x1)", "expected '*', '+' or '-'", 3),
    ("2^2", "expected '*', '+' or '-'", 2),
    ("x1 * * x2", "expected a number or a variable", 6),
    ("x1 *", "expected a number or a variable", 5),
    # a character outside the format
    ("x1 $", "expected '*', '+' or '-'", 4),
    ("x1 * y2", "expected a number or a variable", 6),
    ("1e * x1", "expected '*', '+' or '-'", 2),
    # the specific messages
    ("x1 + x9", "variable x9 outside ambient dimension 2", 6),
    ("x1 * 2/0", "zero denominator", 8),
    (" \t", "empty polynomial text", 1),
])
def test_parse_error_message_and_column(text, message, column):
    with pytest.raises(PolynomialParseError) as info:
        parse_polynomial(text, 2)
    assert str(info.value) == f"{message} (column {column} of {text!r})"
    assert info.value.pos == column - 1


def test_float_overflow_message():
    with pytest.raises(PolynomialParseError, match="coefficient too large for float mode"):
        parse_polynomial("1e400 * x1", 1, FLOAT)


# -- algebraic properties (hypothesis) -------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exact_polys(), exact_polys(), exact_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exact_polys(), exact_polys(), st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_eval_is_ring_homomorphism(p, q, point):
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exact_polys(), exact_polys())
def test_laplacian_product_rule(p, q):
    cross = Polynomial.zero(2)
    for i in range(2):
        cross = cross + p.partial(i) * q.partial(i)
    lhs = (p * q).laplacian()
    rhs = p * q.laplacian() + q * p.laplacian() + cross.scale(2)
    assert lhs == rhs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(0, 10))
def test_euler_identity(degree, seed):
    # radial derivation of a homogeneous polynomial returns degree * p,
    # the infinitesimal form of f(r x) = r^m f(x)
    rng = np.random.default_rng(seed)
    p = random_homogeneous(3, degree, rng)
    assert euler_apply(p) == p.scale(degree)


def test_dilation_scaling_of_homogeneous_eval():
    rng = np.random.default_rng(3)
    p = random_homogeneous(3, 4, rng)
    x = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))
    r = Fraction(3, 2)
    scaled = tuple(r * c for c in x)
    assert p.eval(scaled) == r ** 4 * p.eval(x)


def test_sphere_norm_nonnegative():
    p = P("x1 - x2", 2)
    assert sphere_norm(p) > 0
    assert sphere_norm(Polynomial.zero(2)) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([EXACT, FLOAT]),
    exact_polys(),
    exact_polys(),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)
def test_arithmetic_results_are_valid_polynomials(mode, p, q, scalar):
    # +, -, *, scale and partial build their results without re-validation
    if mode == FLOAT:
        p, q, scalar = p.to_float(), q.to_float(), float(scalar)
    for result in (p + q, p - q, -p, p * q, p.scale(scalar), p.partial(0), q.partial(1)):
        assert result == Polynomial(result.ambient_dim, dict(result.terms), mode)
        assert result.mode == mode
        assert all(c != 0 for c in result.terms.values())
        assert all(type(c) is (Fraction if mode == EXACT else float) for c in result.terms.values())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda dim: st.tuples(exact_polys(dim), exact_polys(dim))))
def test_sphere_inner_is_mean_of_product(pair):
    p, q = pair
    value = sphere_inner(p, q)
    assert isinstance(value, Fraction)
    assert value == sphere_mean(p * q)


def test_exact_sphere_inner_builds_no_product(monkeypatch):
    p = P("x1^2 * x2 - 3/4 * x2^3 + x1 * x2 * x3", 3)
    expected = sphere_mean(p * p)

    def refuse(self, other):
        raise AssertionError("exact sphere_inner built a product polynomial")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    assert sphere_inner(p, p) == expected
