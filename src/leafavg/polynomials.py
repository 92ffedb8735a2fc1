"""Sparse multivariate polynomial arithmetic with calculus and sphere moments.

A polynomial lives in ``R[x1, ..., x_d]`` where ``d`` is the ambient
dimension, and is stored as a map from exponent tuples to nonzero
numerators over one positive denominator ``_den``.  Two scalar modes exist
and never mix implicitly:

* ``"exact"``  -- the numerators are Python ints, reduced so that
  ``gcd(_den, *numerators) == 1``; every ring identity holds on the nose,
  which is what makes the operator checks of the averaging pipeline
  decidable rather than approximate.  ``terms`` and ``coefficient`` give
  :class:`fractions.Fraction` values, built on read.
* ``"float"``  -- the numerators are Python floats and ``_den`` is 1; used by
  the Monte Carlo / least-squares pipelines.

One loop serves both modes in ``+``, ``-``, ``*``, ``**``, ``scale``,
``partial`` and ``laplacian``: exact arithmetic is int arithmetic and one
gcd per result, and no factor other than 1 ever touches a float.

Monomials are ordered graded-lexicographically (higher total degree first,
then lexicographically by exponent vector), and every listing, matrix or
report in the package inherits that fixed order.

Instances are immutable after construction and safe to share between
threads.  The only internal caches are the numerators and denominators of
the sphere moments, whose fill is idempotent.

The public constructor validates and coerces every term.  Results of
arithmetic on polynomials that were already validated skip that step and are
built by the internal ``Polynomial._trusted``, which divides out the
content of exact numerators: ``+``, unary ``-``, ``*``, ``scale``,
``partial``, ``MomentGram.poly`` and the exact group and torus
averages (``basic_projection``).  Each of them drops zero coefficients itself.
Float mode rejects NaN and infinite coefficients at the public constructor.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from types import MappingProxyType
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    CoefficientTooLong,
    DimensionMismatch,
    NonFiniteCoefficient,
    PolynomialParseError,
    ScalarModeMismatch,
)
from .exactlinalg import over_lcm

EXACT = "exact"
FLOAT = "float"

_EVAL_BLOCK = 8192  # rows per block of Polynomial.eval_many (faster than 2048)

ExponentVector = Tuple[int, ...]


def _accumulate(out: dict, pairs) -> dict:
    """Add each ``(exponents, value)`` of ``pairs`` into ``out``, in order: a
    key whose sum is 0 goes, and comes back at the end."""
    for expo, c in pairs:
        c = out.get(expo, 0) + c
        if c == 0:
            out.pop(expo, None)
        else:
            out[expo] = c
    return out


def _coerce(value, mode: str):
    if mode == EXACT:
        if isinstance(value, float):
            raise ScalarModeMismatch(
                f"float coefficient {value!r} in exact mode; convert explicitly"
            )
        return value if type(value) is int else Fraction(value)
    try:
        value = float(value)
    except OverflowError:  # an int or Fraction past the float range
        raise NonFiniteCoefficient("coefficient too large for float mode") from None
    if not math.isfinite(value):
        raise NonFiniteCoefficient(f"non-finite coefficient {value!r} in float mode")
    return value


class Polynomial:
    """Immutable sparse polynomial in ``ambient_dim`` variables.

    ``terms`` maps exponent tuples (length ``ambient_dim``, non-negative
    entries) to nonzero coefficients.  Arithmetic between polynomials of
    different ambient dimension or scalar mode is rejected.
    """

    __slots__ = ("ambient_dim", "mode", "_nums", "_den")

    def __init__(self, ambient_dim: int, terms, mode: str = EXACT):
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be at least 1")
        pairs = []
        for expo, coeff in dict(terms).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != ambient_dim:
                raise DimensionMismatch(
                    f"exponent vector {expo} has length {len(expo)}, expected {ambient_dim}"
                )
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            pairs.append((expo, _coerce(coeff, mode)))
        clean = _accumulate({}, pairs)  # keys equal once normalized collapse
        nums, den = over_lcm(clean.values()) if mode == EXACT else (clean.values(), 1)
        self._init(ambient_dim, mode, dict(zip(clean, nums)), den)

    def _init(self, *values):  # the slots, in order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, ambient_dim: int, nums: dict, den: int, mode: str) -> "Polynomial":
        """Wrap numerators over ``den`` without validation; the new
        polynomial owns the dict.  With ``den`` > 1 the numerators and ``den``
        are first divided by their gcd.

        Only for dicts built by arithmetic on validated polynomials of
        ``ambient_dim`` and ``mode``, with no zero numerator and ``den`` a
        positive int (1 in float mode).
        """
        if den > 1 and (g := math.gcd(den, *nums.values())) > 1:
            nums, den = {e: n // g for e, n in nums.items()}, den // g
        poly = object.__new__(cls)
        poly._init(ambient_dim, mode, nums, den)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int, mode: str = EXACT) -> "Polynomial":
        return cls(ambient_dim, {}, mode)

    @classmethod
    def constant(cls, ambient_dim: int, value, mode: str = EXACT) -> "Polynomial":
        return cls(ambient_dim, {(0,) * ambient_dim: value}, mode)

    @classmethod
    def variable(cls, ambient_dim: int, index: int, mode: str = EXACT) -> "Polynomial":
        """The coordinate polynomial ``x_{index+1}`` (0-based index)."""
        if not 0 <= index < ambient_dim:
            raise DimensionMismatch(f"variable index {index} out of range")
        return cls.monomial(ambient_dim, [int(i == index) for i in range(ambient_dim)], 1, mode)

    @classmethod
    def monomial(cls, ambient_dim: int, expo: Sequence[int], coeff=1, mode: str = EXACT) -> "Polynomial":
        return cls(ambient_dim, {tuple(expo): coeff}, mode)

    # -- views -------------------------------------------------------------

    @property
    def terms(self):
        """Read-only view of the term map (``Fraction`` values, built on read,
        in exact mode)."""
        return MappingProxyType(self._nums if self.mode == FLOAT else
                                {e: Fraction(n, self._den) for e, n in self._nums.items()})

    def coefficient(self, expo: Sequence[int]):
        n = self._nums.get(tuple(expo), 0)
        return Fraction(n, self._den) if self.mode == EXACT else float(n)

    def _floats(self) -> list:
        """``(exponents, float coefficient)`` pairs: ``n / den`` is one
        correctly rounded division, ``float`` of the ``Fraction`` bit for bit
        (OverflowError past the float range)."""
        return [(e, n / self._den) for e, n in self._nums.items()]

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __len__(self) -> int:
        return len(self._nums)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._nums}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous polynomial (0 for the zero polynomial)."""
        degrees = {sum(e) for e in self._nums}
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop() if degrees else 0

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        if self.mode != other.mode:
            raise ScalarModeMismatch(f"scalar modes differ: {self.mode} vs {other.mode}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        # over the lcm of the denominators (a float times 1 keeps its bits)
        den = math.lcm(self._den, other._den)
        ka, kb = den // self._den, den // other._den
        out = _accumulate({e: n * ka for e, n in self._nums.items()},
                          ((e, n * kb) for e, n in other._nums.items()))
        return Polynomial._trusted(self.ambient_dim, out, den, self.mode)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.ambient_dim, {e: -n for e, n in self._nums.items()},
                                   self._den, self.mode)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = _accumulate({}, ((tuple(map(add, ea, eb)), ca * cb)
                               for ea, ca in self._nums.items() for eb, cb in other._nums.items()))
        return Polynomial._trusted(self.ambient_dim, out, self._den * other._den, self.mode)

    def scale(self, scalar) -> "Polynomial":
        c = _coerce(scalar, self.mode)
        c, den = c.as_integer_ratio() if self.mode == EXACT else (c, 1)
        # a float product can underflow to zero
        terms = {e: cv for e, v in self._nums.items() if (cv := c * v) != 0}
        return Polynomial._trusted(self.ambient_dim, terms, self._den * den, self.mode)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.ambient_dim, 1, self.mode)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ambient_dim == other.ambient_dim
            and self.mode == other.mode
            and (self._den, self._nums) == (other._den, other._nums)
        )

    def __repr__(self) -> str:
        text = format_polynomial(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"Polynomial({self.ambient_dim}, {self.mode}, {text})"

    # -- evaluation --------------------------------------------------------

    def eval(self, point: Sequence):
        """Value at ``point``; exact when mode and point are both rational."""
        if len(point) != self.ambient_dim:
            raise DimensionMismatch(
                f"point has length {len(point)}, expected {self.ambient_dim}"
            )
        total = Fraction(0) if self.mode == EXACT else 0.0
        for expo, coeff in self.terms.items():
            term = coeff
            for e, x in zip(expo, point):
                if e:
                    term = term * x ** e
            total = total + term
        return total

    def eval_rows(self, points: np.ndarray) -> np.ndarray:
        """``float(self.eval(row))`` for every row of an ``(n, ambient_dim)``
        float array, bit for bit: each power is ``np.float_power`` (the C
        library's ``pow``, as Python's ``**``), each term is multiplied left
        to right from ``float(coeff)``, and the terms are added in order
        (where ``**`` overflows, ``eval`` raises and this gives inf)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"expected points of shape (N, {self.ambient_dim}), got {points.shape}"
            )
        powers: Dict[Tuple[int, int], np.ndarray] = {}
        total = np.zeros(len(points))
        for expo, term in self._floats():
            for i, e in enumerate(expo):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = np.float_power(points[:, i], e)
                    term = term * powers[i, e]
            total = total + term
        return total

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation on an ``(N, ambient_dim)`` array, in
        blocks of ``_EVAL_BLOCK`` rows: scratch memory is bounded by the block,
        and each row gets the same operations, in the same order, in any block."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"expected points of shape (N, {self.ambient_dim}), got {points.shape}"
            )
        out = np.zeros(points.shape[0])
        if not self._nums:
            return out
        max_exp = [max(e) for e in zip(*self._nums)]
        terms = [([(i, e) for i, e in enumerate(expo) if e], coeff) for expo, coeff in self._floats()]
        for start in range(0, len(out), _EVAL_BLOCK):
            block = points[start:start + _EVAL_BLOCK]
            acc = out[start:start + _EVAL_BLOCK]
            term = np.empty(len(acc))
            # power tables avoid repeated np.power calls per term; tables[i][e]
            # is x_i^e for e >= 1
            tables = []
            for i, m in enumerate(max_exp):
                col = block[:, i]
                tab = [None, col]
                for _ in range(1, m):
                    tab.append(tab[-1] * col)
                tables.append(tab)
            for factors, coeff in terms:
                if not factors:
                    acc += coeff
                    continue
                (i, e), *rest = factors
                np.multiply(tables[i][e], coeff, out=term)
                for i, e in rest:
                    term *= tables[i][e]
                acc += term
        return out

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to coordinate ``index`` (0-based)."""
        if not 0 <= index < self.ambient_dim:
            raise DimensionMismatch(f"variable index {index} out of range")
        out: Dict[ExponentVector, object] = {}
        for expo, coeff in self._nums.items():
            e = expo[index]
            if e == 0:
                continue
            new = list(expo)
            new[index] = e - 1
            out[tuple(new)] = coeff * e
        return Polynomial._trusted(self.ambient_dim, out, self._den, self.mode)

    def gradient(self) -> Tuple["Polynomial", ...]:
        return tuple(self.partial(i) for i in range(self.ambient_dim))

    def laplacian(self) -> "Polynomial":
        return sum((self.partial(i).partial(i) for i in range(self.ambient_dim)),
                   Polynomial.zero(self.ambient_dim, self.mode))

    # -- conversions -------------------------------------------------------

    def to_float(self) -> "Polynomial":
        if self.mode == FLOAT:
            return self
        try:
            return Polynomial(self.ambient_dim, self._floats(), FLOAT)
        except OverflowError:  # a coefficient past the float range
            raise NonFiniteCoefficient("coefficient too large for float mode") from None

    def to_exact(self) -> "Polynomial":
        """Exact conversion (binary float -> Fraction, no rounding)."""
        if self.mode == EXACT:
            return self
        return Polynomial(
            self.ambient_dim, {e: Fraction(c) for e, c in self._nums.items()}, EXACT
        )

    def max_abs_coeff(self) -> float:
        return max((abs(c) for _, c in self._floats()), default=0.0)


# -- monomial bookkeeping ---------------------------------------------------


def grlex_key(expo: ExponentVector):
    """Sort key putting monomials in descending graded-lex order."""
    return (-sum(expo), tuple(-e for e in expo))


def weighted_exponent_patterns(degrees: Sequence[int], target: int) -> List[tuple]:
    """All exponent tuples ``e`` with ``sum(e_i * degrees_i) == target``.

    Deterministic order (first exponent descending, and so on): with every
    degree 1 this is the graded-lex order of :func:`monomial_basis`.
    """
    if target < 0:
        return []
    patterns = [((), target)]
    last = len(degrees) - 1
    for i, step in enumerate(degrees):
        # the last exponent takes what remains, when its degree divides that
        patterns = [(p + (e,), rest - e * step) for p, rest in patterns
                    for e in (range(rest // step, -1, -1) if i < last else (rest // step,))]
    return [p for p, rest in patterns if rest == 0]


def monomial_basis(ambient_dim: int, degree: int) -> List[ExponentVector]:
    """All exponent vectors of the given total degree, graded-lex order.

    The count is C(ambient_dim + degree - 1, degree).
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return weighted_exponent_patterns((1,) * ambient_dim, degree)


def radius_squared(ambient_dim: int, mode: str = EXACT) -> Polynomial:
    """The polynomial ``x1^2 + ... + x_d^2``."""
    return Polynomial(ambient_dim, {tuple(2 * (j == i) for j in range(ambient_dim)): 1
                                    for i in range(ambient_dim)}, mode)


# -- sphere moments ---------------------------------------------------------


@lru_cache(maxsize=None)
def _moment_numerator(expo: ExponentVector) -> int:
    """``prod_i (alpha_i - 1)!!`` for an all-even exponent tuple."""
    return math.prod(math.prod(range(e - 1, 0, -2)) for e in expo)


@lru_cache(maxsize=None)
def _moment_denominator(ambient_dim: int, half_degree: int) -> int:
    """``d (d+2) ... (d + 2 half_degree - 2)``; each divides the next."""
    return math.prod(ambient_dim + 2 * k for k in range(half_degree))


def sphere_mean(p: Polynomial):
    """Mean of ``p`` over the unit sphere (normalized measure): the moment of
    ``x^alpha`` is ``prod_i (alpha_i - 1)!! / [d (d+2) ... (d + |alpha| - 2)]``
    when every exponent is even, else 0.  Exact Fraction in exact mode, float
    in float mode (each moment correctly rounded).
    """
    even = [(n, _moment_numerator(e), _moment_denominator(p.ambient_dim, sum(e) // 2))
            for e, n in p._nums.items() if not any(x & 1 for x in e)]
    if p.mode == FLOAT:
        return float(sum(n * (num / den) for n, num, den in even))
    # one integer over the largest moment denominator, which every other one divides
    top = max((den for *_, den in even), default=1)
    return Fraction(sum(n * num * (top // den) for n, num, den in even), top * p._den)


class MomentGram:
    """The sphere pairing on one list of monomials, as an integer matrix.

    Entry ``(a, b)`` is the moment of ``x^(a+b)`` times ``den``, the moment
    denominator of the top degree, which every lower one divides.  A moment
    vanishes unless every exponent of ``a + b`` is even, so only the dense
    block of each exponent parity class is stored, with its monomials' indices.
    """

    def __init__(self, ambient_dim: int, monomials: Sequence[tuple]):
        self.ambient_dim = ambient_dim
        self.monomials = tuple(monomials)
        self.den = _moment_denominator(ambient_dim, max(map(sum, self.monomials), default=0))
        classes: Dict[tuple, List[int]] = {}
        for i, e in enumerate(self.monomials):
            classes.setdefault(tuple(x & 1 for x in e), []).append(i)
        self.blocks = []
        for idx in classes.values():
            block = [[0] * len(idx) for _ in idx]
            for r, i in enumerate(idx):
                for c in range(r, len(idx)):
                    block[r][c] = block[c][r] = self._entry(self.monomials[i], self.monomials[idx[c]])
            self.blocks.append((idx, block))

    def _entry(self, a: tuple, b: tuple) -> int:
        expo = tuple(map(add, a, b))
        return _moment_numerator(expo) * (self.den // _moment_denominator(self.ambient_dim, sum(expo) // 2))

    def apply(self, row: Sequence[int]) -> List[int]:
        """The integer row ``G row``."""
        out = [0] * len(self.monomials)
        for idx, block in self.blocks:
            part = [row[j] for j in idx]
            if any(part):
                for i, entries in zip(idx, block):
                    out[i] = sum(map(mul, entries, part))
        return out

    def row(self, p: Polynomial) -> Tuple[List[int], int]:
        """``(row, den)``: the numerators of ``p``, whose terms are among the
        monomials, over them, and its denominator: ``p = row / den``."""
        p = p.to_exact()
        return [p._nums.get(e, 0) for e in self.monomials], p._den

    def poly(self, row: Sequence[int], den: int) -> Polynomial:
        return Polynomial._trusted(
            self.ambient_dim, {e: x for e, x in zip(self.monomials, row) if x}, den, EXACT
        )


def sphere_inner(p: Polynomial, q: Polynomial):
    """L^2 pairing ``mean(p * q)`` over the unit sphere.

    Exact mode pairs the integer coefficient rows of ``p`` and ``q`` through
    the :class:`MomentGram` of their terms and never builds ``p * q``
    (Folland, "How to integrate a polynomial over a sphere", Amer. Math.
    Monthly 108, 2001): one integer over one denominator.  Float mode
    returns ``sphere_mean(p * q)``.
    """
    p._check_compatible(q)
    if p.mode == FLOAT:
        return sphere_mean(p * q)
    gram = MomentGram(p.ambient_dim, {**p._nums, **q._nums})
    (row_p, den_p), (row_q, den_q) = gram.row(p), gram.row(q)
    return Fraction(sum(map(mul, row_p, gram.apply(row_q))), den_p * den_q * gram.den)


def sphere_norm(p: Polynomial) -> float:
    """Float L^2(sphere) norm, valid in both modes."""
    return math.sqrt(max(float(sphere_inner(p, p)), 0.0))


# -- rationalization --------------------------------------------------------


def rationalize(p: Polynomial, max_denominator: int) -> Tuple[Polynomial, float]:
    """Round each coefficient to the nearest rational with bounded denominator.

    Returns the exact-mode polynomial and the largest perturbation applied.
    Lossy by design; terms rounding to zero are dropped.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    terms = {}
    worst = 0.0
    for expo, coeff in p.terms.items():
        approx = Fraction(coeff).limit_denominator(max_denominator)
        worst = max(worst, abs(float(Fraction(coeff) - approx)))
        if approx != 0:
            terms[expo] = approx
    return Polynomial(p.ambient_dim, terms, EXACT), worst


# -- text format ------------------------------------------------------------

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# a factor and the whitespace after it; an exponent is digits no '.' or e-part extends
_FACTOR = re.compile(rf"""(?:(?P<num>{_NUMBER})(?:\s*(?P<slash>/)\s*(?P<den>{_NUMBER})?)?
    | (?P<var>x\d+)(?:\s*(?P<caret>\^)\s*(?P<power>\d+(?![.\d]|[eE][+-]?\d))?)?)\s*""", re.VERBOSE)
_SIGNS = re.compile(r"(?:[+-]\s*)+")
_STAR = re.compile(r"\*\s*")


def parse_polynomial(text: str, ambient_dim: int, mode: str = EXACT) -> Polynomial:
    """Parse the text format, for example ``3/4 * x1^2 * x2 - x3 + 0.5``.

    A term is one or more signs (the first term may have none), then factors
    joined by ``*``; a factor is a number with an optional ``/number``, or
    ``x<i>`` with an optional ``^<digits>``.  Whitespace may stand between
    any two pieces.  Decimal and scientific numbers are converted exactly in
    exact mode.  Malformed text raises :class:`PolynomialParseError`.
    """
    if not isinstance(text, str):
        raise PolynomialParseError(f"polynomial text must be a string, got {text!r}")
    pos = len(text) - len(text.lstrip())
    if pos == len(text):
        raise PolynomialParseError("empty polynomial text", text, 0)

    terms: Dict[ExponentVector, object] = {}
    signs = _SIGNS.match(text, pos)  # optional before the first term only
    while True:  # one term per pass
        coeff, expo = Fraction(1), [0] * ambient_dim
        if signs:
            coeff, pos = Fraction((-1) ** signs.group().count("-")), signs.end()
        while True:  # one factor per pass
            m = _FACTOR.match(text, pos)
            if m is None:
                raise PolynomialParseError("expected a number or a variable", text, pos)
            if m["var"]:
                index = int(m["var"][1:]) - 1
                if not 0 <= index < ambient_dim:
                    raise PolynomialParseError(
                        f"variable {m['var']} outside ambient dimension {ambient_dim}", text, pos)
                if m["caret"] and not m["power"]:
                    raise PolynomialParseError("expected integer exponent", text, pos)
                expo[index] += int(m["power"] or 1)
            else:
                if m["slash"] and not m["den"]:
                    raise PolynomialParseError("expected denominator", text, pos)
                den = Fraction(m["den"] or 1)
                if den == 0:
                    raise PolynomialParseError("zero denominator", text, m.start("den"))
                coeff *= Fraction(m["num"]) / den
            star = _STAR.match(text, m.end())
            if star is None:
                break
            pos = star.end()
        terms[tuple(expo)] = terms.get(tuple(expo), Fraction(0)) + coeff
        pos = m.end()
        if pos == len(text):
            break
        signs = _SIGNS.match(text, pos)
        if signs is None:
            raise PolynomialParseError("expected '*', '+' or '-'", text, pos)

    if mode == FLOAT:
        try:
            terms = {e: float(c) for e, c in terms.items()}
        except OverflowError:
            raise PolynomialParseError(f"coefficient too large for float mode in {text!r}") from None
    return Polynomial(ambient_dim, terms, mode)


def _coefficient_text(coeff, mode: str) -> str:
    if mode != EXACT:
        return repr(float(coeff))
    try:
        return str(coeff)
    except ValueError:  # the int-to-text digit limit of sys.set_int_max_str_digits
        raise CoefficientTooLong(
            "an exact coefficient has a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to write as text"
        ) from None


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form, terms in descending graded-lex order."""
    pieces = []
    terms = p.terms
    for expo in sorted(terms, key=grlex_key):
        coeff = terms[expo]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(expo) if e > 0]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, _coefficient_text(abs(coeff), p.mode))
        sign = ("- " if coeff < 0 else "+ ") if pieces else ("-" if coeff < 0 else "")
        pieces.append(sign + " * ".join(factors))
    return " ".join(pieces) or "0"
