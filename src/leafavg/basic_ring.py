"""Degree-by-degree discovery of generators of the basic polynomial ring.

The ring of leaf-constant (basic) polynomials is finitely generated; this
module realizes the generating set constructively.  For each degree ``d``
up to a user-chosen cap:

1. span the basic slice ``B_d`` (``basic_subspace``) by the model's
   ``slice_rows(d)``: an exact model's over only the monomials they touch,
   row reduced in integers, any other's (a float group's, an isoparametric
   model's) in floats over every monomial of the degree;
2. span the degree-``d`` products of previously found generators; an exact
   degree is covered, with no new generator, when the slice's rows add no
   rank to theirs;
3. else adopt an orthogonal complement of the product span inside ``B_d``
   (an exact slice is orthogonalized on first read, then kept) as the new
   generators, sparsified to readable representatives.

``verify_generation`` runs steps 1 and 2 on the same slices and reports how
far each slice reaches outside the product span: 0 at a covered degree.

Exact pairings are integer dot products against ``G b`` for one Gram matrix
``G`` of sphere-moment numerators per degree (``MomentGram``; the
linear-algebra method of Derksen and Kemper, *Computational Invariant Theory*).

For finite matrix groups the per-degree dimensions have a classical
independent oracle, the Molien series, implemented here with exact rational
series arithmetic so the two dimension computations can be compared on the
nose.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .averaging import generator_products
from .errors import (
    ConfigError,
    DegreeCapWarning,
    GenerationGap,
    RankUnstable,
    ScalarModeMismatch,
)
from .exactlinalg import _integer_rref, primitive_integer_row
from .models import MAX_SLICE_CELLS, FiniteGroupModel
from .polynomials import (
    EXACT,
    FLOAT,
    MomentGram,
    Polynomial,
    format_polynomial,
    grlex_key,
    monomial_basis,
    rationalize,
    sphere_norm,
)

# rationalizing a float generator: the denominator bound, and the largest
# relative sphere-norm change (to the polynomial and off the slice) accepted
MAX_DENOMINATOR = 12
CLEAN_TOL = 5e-2
# smallest singular-value ratio across a float rank cut
GUARD_BAND = 10.0
# smallest share of its row's largest entry that a float pivot must reach
PIVOT_FRAC = 0.1


def vector_to_poly(vec, monomials: Sequence[tuple], ambient_dim: int, mode: str) -> Polynomial:
    return Polynomial(ambient_dim, {e: c for e, c in zip(monomials, vec)}, mode)


# -- the exact sphere pairing in integers ------------------------------------


def _gram_matrix(ambient_dim: int, monomials: Sequence[tuple]) -> np.ndarray:
    """The sphere pairing in floats: each entry its moment, correctly rounded."""
    table = MomentGram(ambient_dim, monomials)
    gram = np.zeros((len(monomials), len(monomials)))
    for idx, block in table.blocks:
        gram[np.ix_(idx, idx)] = [[x / table.den for x in entries] for entries in block]
    return gram


class _ExactSpan:
    """A sphere-orthogonal basis, grown one exact vector at a time.

    A vector is ``(row, den)``: integer coefficients over the Gram table's
    monomials over one denominator.  Each basis vector ``b`` keeps ``G b`` and
    ``n = b . G b``, so ``p - <p,b>/<b,b> b`` is ``(n p - s b) / (n den_p)``
    with ``s = p . G b``, divided by its content.  Adding vectors in order is
    exact Gram-Schmidt, whose output is unique given the order.
    """

    def __init__(self, gram: MomentGram, polys: Sequence[Polynomial] = ()):
        self.gram = gram
        self.basis: List[tuple] = []  # (row, den, G row, row . G row)
        for p in polys:
            self.add(*gram.row(p))

    def remainder(self, row: List[int], den: int) -> Tuple[List[int], int]:
        """``row / den`` minus its orthogonal projection onto the span."""
        for b, _, gb, n in self.basis:
            s = sum(map(mul, row, gb))
            if s:
                row = [n * x - s * y for x, y in zip(row, b)]
                den *= n
                g = math.gcd(den, *row)
                if g > 1:
                    row = [x // g for x in row]
                    den //= g
        return row, den

    def add(self, row: List[int], den: int) -> None:
        """Append the remainder of ``row / den`` unless it is zero."""
        row, den = self.remainder(row, den)
        if any(row):
            gb = self.gram.apply(row)
            self.basis.append((row, den, gb, sum(map(mul, row, gb))))

    def norm(self, row: Sequence[int], den: int) -> float:
        # int / int is correctly rounded, as float(Fraction) is
        return math.sqrt(sum(map(mul, row, self.gram.apply(row))) / (den * den * self.gram.den))

    def polynomials(self) -> List[Polynomial]:
        return [self.gram.poly(row, den) for row, den, _, _ in self.basis]


def _span_of(polys: Sequence[Polynomial], *others: Polynomial) -> _ExactSpan:
    """``polys`` orthogonalized in order, over the terms of ``polys`` and ``others``."""
    if any(p.mode != EXACT for p in (*polys, *others)):
        raise ScalarModeMismatch("the exact sphere pairing takes exact polynomials")
    monomials = sorted({e for p in (*polys, *others) for e in p._nums}, key=grlex_key)
    return _ExactSpan(MomentGram((*polys, *others)[0].ambient_dim, monomials), polys)


def gram_schmidt_polys(polys: Sequence[Polynomial]) -> Tuple[List[Polynomial], List]:
    """Orthogonalize exact polynomials in order under the sphere pairing (no
    normalization, so they stay inside the rationals).  Zero remainders are
    dropped; returns the orthogonal polynomials and their squared norms."""
    if not polys:
        return [], []
    span = _span_of(polys)
    return span.polynomials(), [Fraction(n, den * den * span.gram.den) for _, den, _, n in span.basis]


def project_residual(p: Polynomial, ortho: Sequence[Polynomial], norms: Sequence) -> Polynomial:
    """Remainder of ``p`` after subtracting its projection onto the span of
    ``ortho``; ``norms``, their squared norms from :func:`gram_schmidt_polys`,
    are recomputed in integers."""
    span = _span_of(ortho, p)
    return span.gram.poly(*span.remainder(*span.gram.row(p)))


def _float_remainders(gram: np.ndarray, rows: np.ndarray,
                      span: np.ndarray) -> Tuple[np.ndarray, Iterator[float]]:
    """Coefficient ``rows`` minus their sphere-orthogonal projection onto the
    row space of ``span`` under the moment Gram matrix ``gram``, with the rank
    of ``span`` cut at 1e-10 on the sphere-norm scale, and the sphere norm of
    each remainder, computed as it is read."""
    span_rows, _ = _orthonormal_rows(span, gram, 1e-10)
    rows = rows - rows @ gram @ span_rows.T @ span_rows
    return rows, (float(np.sqrt(max(row @ gram @ row, 0.0))) for row in rows)


def _columns(basis: "SubspaceBasis", polys: Sequence[Polynomial]) -> tuple:
    """The exact slice's support, then any term of ``polys`` outside it in
    graded-lex order (a dropped term would read as 0 in ``MomentGram.row``):
    a support row is padded with zeros to them."""
    outside = {e for p in polys for e in p._nums}.difference(basis.monomials)
    return basis.monomials + tuple(sorted(outside, key=grlex_key))


def _remainders(basis: "SubspaceBasis",
                products: Sequence[Polynomial]) -> Tuple[list, Iterator[float], object]:
    """Each basis vector of the slice minus its sphere-orthogonal projection
    onto the span of ``products`` (of the slice's degree), its sphere norm
    (computed as it is read: discovery reads none), and the Gram matrix of
    the rows' columns: ``(row, den)`` pairs for an exact slice, float
    coefficient rows else."""
    if basis.mode == FLOAT:
        return (*_float_remainders(basis.gram, basis.rows, _coefficient_rows(products, basis.monomials)),
                basis.gram)
    columns = _columns(basis, products)
    pad = [0] * (len(columns) - len(basis.monomials))
    gram = MomentGram(basis.ambient_dim, columns) if pad else basis.span.gram
    products_span = _ExactSpan(gram, products)
    rows = [products_span.remainder(row + pad, den) for row, den, _, _ in basis.span.basis]
    return rows, (products_span.norm(row, den) for row, den in rows), gram


def _covers(basis: "SubspaceBasis", products: Sequence[Polynomial]) -> bool:
    """Whether the exact slice lies in the span of ``products``, decided in
    integers: appending the slice's echelon rows to the product rows leaves
    their rank unchanged.  Then every slice remainder is zero, whether or not
    the products are basic."""
    if len(products) < basis.rank:
        return False
    # each product's numerators: its denominator does not change the rank
    columns = _columns(basis, products)
    reduced, _ = _integer_rref([[p._nums.get(e, 0) for e in columns] for p in products])
    rank, pad = len(reduced), [0] * (len(columns) - len(basis.monomials))
    return rank >= basis.rank and len(_integer_rref(reduced + [r + pad for r in basis.echelon])[0]) == rank


@dataclass
class SubspaceBasis:
    """A basis of the basic slice in one degree, kept in one form.

    An exact slice is its ``echelon``, primitive integer multiples of the
    reduced row echelon rows over ``monomials``: its support, the monomials
    its rows touch, in graded-lex order.  Its integer ``span`` (those rows
    orthogonalized in order: sphere-orthogonal, not normalized) is built on
    first read and kept.  A float slice is ``rows``, coefficient vectors over
    ``monomials``, every monomial of the degree, orthonormal under the float
    moment Gram matrix ``gram``, with the singular values of the rank decision
    and its cut ``tol_rank``.
    """

    degree: int
    mode: str
    ambient_dim: int
    monomials: Tuple[tuple, ...]
    echelon: Optional[List[List[int]]] = field(default=None, repr=False, compare=False)
    rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    gram: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    singular_values: Optional[List[float]] = None
    tol_rank: Optional[float] = None

    @property
    def rank(self) -> int:
        return len(self.rows if self.mode == FLOAT else self.echelon)

    @cached_property
    def span(self) -> _ExactSpan:
        span = _ExactSpan(MomentGram(self.ambient_dim, self.monomials))
        for row in self.echelon:
            span.add(row, next(filter(None, row)))  # the reduced row echelon row
        return span

    def polynomials(self) -> List[Polynomial]:
        if self.mode == FLOAT:
            return [vector_to_poly(row, self.monomials, self.ambient_dim, FLOAT) for row in self.rows]
        return self.span.polynomials()

    def residual(self, p: Polynomial) -> float:
        """Sphere-norm distance from ``p`` to the subspace."""
        if self.mode == FLOAT:
            return next(_float_remainders(self.gram, _coefficient_rows([p], self.monomials), self.rows)[1])
        span = _span_of(self.polynomials(), p.to_exact())  # p may have terms of any degree
        return span.norm(*span.remainder(*span.gram.row(p)))


def _orthonormal_rows(
    matrix: np.ndarray,
    gram: np.ndarray,
    tol_rank: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows orthonormal under ``gram`` spanning the row space of ``matrix``.

    ``tol_rank`` is an absolute singular-value threshold on the sphere-norm
    scale (never relative to the top singular value: a pure-noise slice must
    not normalize against its own noise).  A singular-value gap below the
    guard factor across the cut raises :class:`RankUnstable`, so a
    borderline rank is reported, never guessed.
    """
    if matrix.size == 0:
        return np.zeros((0, gram.shape[0])), np.zeros(0)
    chol = np.linalg.cholesky(gram)
    transformed = matrix @ chol
    _, sing, vt = np.linalg.svd(transformed, full_matrices=False)
    if sing.size == 0 or sing[0] == 0.0:
        return np.zeros((0, gram.shape[0])), sing
    rank = int((sing >= tol_rank).sum())
    if 0 < rank < len(sing) and sing[rank - 1] / sing[rank] < GUARD_BAND:
        raise RankUnstable(
            f"singular-value gap {sing[rank - 1]:.3e} / {sing[rank]:.3e} across the "
            f"rank threshold {tol_rank:.3e} is below the guard factor {GUARD_BAND}",
            singular_values=list(map(float, sing)),
        )
    rows = vt[:rank] @ np.linalg.inv(chol)
    return rows, sing


def _coefficient_rows(polys: Sequence[Polynomial], monomials: Sequence[tuple]) -> np.ndarray:
    """Float coefficient vectors of ``polys`` over ``monomials``, one row each."""
    return np.array(
        [[float(p.coefficient(e)) for e in monomials] for p in polys]
    ).reshape(len(polys), len(monomials))


def _float_rref_rows(rows: np.ndarray) -> np.ndarray:
    """Echelon sparsification of float rows (pivot columns left to right).

    A column only pivots when the chosen entry dominates its own row
    (at least ``PIVOT_FRAC`` of the row's largest entry); statistical noise
    columns must never become pivots, or normalization blows the row up.
    Every nonzero row still pivots eventually, at the column where it
    attains its maximum.
    """
    mat = rows.copy()
    if mat.size == 0:
        return mat
    n_rows, n_cols = mat.shape
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pivot = r + int(np.argmax(np.abs(mat[r:, c])))
        value = abs(mat[pivot, c])
        if value == 0.0 or value < PIVOT_FRAC * float(np.abs(mat[pivot]).max()):
            continue
        mat[[r, pivot]] = mat[[pivot, r]]
        mat[r] = mat[r] / mat[r, c]
        for i in range(n_rows):
            if i != r and abs(mat[i, c]) > 0:
                mat[i] = mat[i] - mat[i, c] * mat[r]
        r += 1
    return mat[:r]


# -- the basic slice ---------------------------------------------------------

# an exact closed-form slice depends only on the model and the degree (not the
# seed or sample sizes): kept while its model lives, read-only
_EXACT_SLICES: "weakref.WeakKeyDictionary[object, Dict[int, SubspaceBasis]]" = weakref.WeakKeyDictionary()


def basic_subspace(model, degree: int) -> SubspaceBasis:
    """Image of the averaging operator on the degree-``degree`` slice,
    spanned by the model's ``slice_rows(degree)``.

    An exact model's rows are row reduced in integers (canonical for the
    span, with exact rank) over only the monomials they touch, once per
    model and degree, and orthogonalized on the first read of the slice's
    ``span``; a :class:`ConfigError` refuses more than ``MAX_SLICE_CELLS``
    before any dense row is built.  Any other model's rows are
    orthonormalized in floats with a rank cut at the model's ``tol_rank``,
    and a singular-value audit.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if model.exact:
        slices = _EXACT_SLICES.setdefault(model, {})
        if degree not in slices:
            rows = model.slice_rows(degree)
            support = tuple(sorted({e for row in rows for e in row}, key=grlex_key))
            if len(rows) * len(support) > MAX_SLICE_CELLS:
                raise ConfigError(f"the degree-{degree} slice has {len(rows)} rows over {len(support)} "
                                  f"monomials, past MAX_SLICE_CELLS = {MAX_SLICE_CELLS}")
            echelon, _ = _integer_rref([primitive_integer_row([r.get(e, 0) for e in support]) for r in rows])
            slices[degree] = SubspaceBasis(degree, EXACT, model.ambient_dim, support, echelon=echelon)
        return slices[degree]
    monomials = tuple(monomial_basis(model.ambient_dim, degree))
    matrix = np.array([[row.get(e, 0) for e in monomials] for row in model.slice_rows(degree)],
                      dtype=float).reshape(-1, len(monomials))
    gram = _gram_matrix(model.ambient_dim, monomials)
    rows, sing = _orthonormal_rows(matrix, gram, model.tol_rank)
    return SubspaceBasis(degree, FLOAT, model.ambient_dim, monomials, rows=rows, gram=gram,
                         singular_values=list(map(float, sing)), tol_rank=model.tol_rank)


def basic_projection(model, f: Polynomial) -> Polynomial:
    """The leaf average of ``f`` on an exact closed-form model, as the
    sphere-orthogonal projection onto the basic polynomials: the constant
    part of ``f`` is kept, and each degree-``d`` part ``p`` becomes ``p``
    minus its remainder against the span of the cached exact slice ``B_d``,
    read only on its support.  Terms come in descending graded-lex order;
    float input gives float coefficients."""
    exact, result = f.to_exact(), Polynomial._trusted(model.ambient_dim, {}, 1, EXACT)
    parts: Dict[int, dict] = {}
    for expo, n in exact._nums.items():
        parts.setdefault(sum(expo), {})[expo] = n
    for d in sorted(parts):  # each part goes before the lower degrees: descending order
        nums, den = parts[d], exact._den
        if d:
            # Terms off the support are dropped: the slice is the image of the
            # average P of an orthogonal group or torus, an orthogonal projection
            # in the sphere pairing and in the Fischer pairing [x^a, x^b] = a!
            # delta_ab (both invariant under orthogonal maps), so P(x^e) has
            # coefficient [P x^e, x^e] / e! = |P x^e|^2 / e! at x^e.  Off the
            # support that is 0, so P(x^e) = 0 and <x^e, b> = <P x^e, b> = 0 for each b.
            basis = basic_subspace(model, d)
            row = [nums.get(e, 0) for e in basis.monomials]
            # a part with no term on the support averages to 0, with no Gram matrix built
            rest, rest_den = basis.span.remainder(row, den) if any(row) else (row, den)
            projected = zip(basis.monomials, (x * rest_den - y * den for x, y in zip(row, rest)))
            nums, den = {e: x for e, x in projected if x}, den * rest_den
        result = Polynomial._trusted(model.ambient_dim, nums, den, EXACT) + result
    return result.to_float() if f.mode == FLOAT else result


def _degree_slices(model, cap: int):
    """Yield ``(d, basic_subspace(model, d))`` for ``d = 1..cap``."""
    for d in range(1, cap + 1):
        yield d, basic_subspace(model, d)


# -- Molien oracle ------------------------------------------------------------


def _series_invert(poly: Sequence[Fraction], max_degree: int) -> List[Fraction]:
    """The series of ``1 / poly`` to ``t^max_degree``: ints when ``poly``'s
    coefficients are (a signed permutation's), else ``Fraction``s."""
    if poly[0] != 1:
        raise ValueError("series inversion expects constant term 1")
    inv = [1] + [0] * max_degree
    for k in range(1, max_degree + 1):
        inv[k] = -sum(poly[j] * inv[k - j] for j in range(1, min(k, len(poly) - 1) + 1))
    return inv


def molien_dimensions(model: FiniteGroupModel, max_degree: int) -> List[int]:
    """Dimensions of the degree-``d`` invariants, ``d = 0..max_degree``.

    Expands ``(1/|G|) sum_g 1/det(I - t g)`` with exact series arithmetic;
    the classical independent oracle for ``dim B_d``.  The group counts its
    ``det(I - t g)`` factors (:meth:`FiniteGroupModel.det_counts`); each
    distinct one is inverted once and weighted by its count, in ints until a
    Faddeev-LeVerrier factor or the division by ``|G|``.
    """
    if not isinstance(model, FiniteGroupModel):
        raise TypeError("the Molien series is defined for finite groups")
    if not model.exact:
        raise ScalarModeMismatch("Molien series needs exact rational matrix entries")
    total = [0] * (max_degree + 1)
    for det, count in model.det_counts().items():
        total = [t + count * c for t, c in zip(total, _series_invert(det, max_degree))]
    dims = [Fraction(value) / model.order for value in total]
    if bad := [value for value in dims if value.denominator != 1]:
        raise RuntimeError(f"non-integer Molien coefficient {bad[0]}")
    return [int(value) for value in dims]


# -- generator sets -----------------------------------------------------------


@dataclass
class GeneratorSet:
    """Homogeneous basic generators with degrees and provenance.

    ``products`` is ``(generators, built)``: ``built`` maps a degree ``d``
    to the degree-``d`` products of ``generators`` that
    :func:`discover_generators` built (those of lower degree, then each new
    generator of degree ``d``: the list of
    :func:`~leafavg.averaging.generator_products`).  :func:`verify_generation`
    reuses them while ``generators`` is still the set's tuple."""

    ambient_dim: int
    mode: str
    generators: Tuple[Polynomial, ...]
    degrees: Tuple[int, ...]
    degree_cap: int
    dims_by_degree: Dict[int, int]
    provenance: dict = field(default_factory=dict)
    products: tuple = field(default=((), {}), repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.generators)

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "mode": self.mode,
            "degree_cap": self.degree_cap,
            "generators": [
                {"degree": d, "text": format_polynomial(p)}
                for d, p in zip(self.degrees, self.generators)
            ],
            "dims_by_degree": {str(k): v for k, v in sorted(self.dims_by_degree.items())},
            "provenance": self.provenance,
        }


def _sparsify_exact(remainders: Sequence[tuple], gram: MomentGram) -> List[Polynomial]:
    """Primitive integer rows, leading entry positive, of the RREF of the span
    of the ``(row, den)`` remainders over ``gram``'s monomials, which is
    canonical for the span (zero rows drop out)."""
    reduced, _ = _integer_rref([primitive_integer_row(row) for row, _ in remainders])
    return [gram.poly(row, 1) for row in reduced]


def _sparsify_float(remainders: np.ndarray, basis: SubspaceBasis) -> List[Polynomial]:
    """Echelon representatives of the numerical span (at the slice's rank
    cut) of the coefficient rows ``remainders``, each replaced by its
    small-denominator rounding when that stays close to it and to the slice."""
    rows, _ = _orthonormal_rows(remainders, basis.gram, basis.tol_rank)
    out = []
    for row in _float_rref_rows(rows):
        poly = vector_to_poly([float(c) for c in row], basis.monomials, basis.ambient_dim, FLOAT)
        rational = rationalize(poly, MAX_DENOMINATOR)[0].to_float()
        scale = max(sphere_norm(poly), 1e-30)
        if sphere_norm(rational - poly) / scale <= CLEAN_TOL and basis.residual(rational) / scale <= CLEAN_TOL:
            poly = rational
        out.append(poly)
    return out


def discover_generators(model, degree_cap: int, *, seed: int = 0) -> GeneratorSet:
    """Run the degree induction up to ``degree_cap``.

    Deterministic given (model, cap); the generator list for a smaller cap
    is a prefix of the list for a larger one.  Emits
    :class:`DegreeCapWarning` when new generators still appear at the cap.
    Float slices are cut at the rank tolerance of :func:`basic_subspace`,
    which the provenance records with ``seed`` and the model's engine.
    """
    if degree_cap < 1:
        raise ValueError("degree_cap must be at least 1")
    generators: List[Polynomial] = []
    degrees: List[int] = []
    dims: Dict[int, int] = {}
    new_at_cap = False
    built: Dict[int, list] = {}

    for d, basis in _degree_slices(model, degree_cap):
        dims[d] = basis.rank
        if basis.rank == 0:
            continue
        products = [p for _, p in generator_products(generators, d)]
        if model.exact and _covers(basis, products):
            new_polys = []
        else:
            rows, _, gram = _remainders(basis, products)
            new_polys = _sparsify_exact(rows, gram) if model.exact else _sparsify_float(rows, basis)

        built[d] = products + new_polys
        generators += new_polys
        degrees += [d] * len(new_polys)
        if d == degree_cap and new_polys:
            new_at_cap = True
            warnings.warn(
                f"new generators appeared at the degree cap {degree_cap}; "
                "the ring may need a larger cap",
                DegreeCapWarning,
            )

    provenance = {
        "model": model.name,
        "seed": seed,
        "tol_rank": model.tol_rank,
        "engine": model.engine,
        # no model samples any more; the keys stay null so recorded artifacts keep their bytes
        "sample_points": None,
        "mc_samples": None,
        "new_generators_at_cap": new_at_cap,
    }
    generators = tuple(generators)
    return GeneratorSet(
        ambient_dim=model.ambient_dim,
        mode=EXACT if model.exact else FLOAT,
        generators=generators,
        degrees=tuple(degrees),
        degree_cap=degree_cap,
        dims_by_degree=dims,
        provenance=provenance,
        products=(generators, built),
    )


@dataclass
class GenerationReport:
    """Per-degree residuals of the basic slices against the algebra."""

    max_residual_by_degree: Dict[int, float]
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_by_degree.values(), default=0.0)

    def gaps(self) -> List[int]:
        return [d for d, r in sorted(self.max_residual_by_degree.items()) if r > self.tolerance]

    def to_dict(self) -> dict:
        return {
            "max_residual_by_degree": {str(k): v for k, v in sorted(self.max_residual_by_degree.items())},
            "tolerance": self.tolerance,
            "gaps": self.gaps(),
        }


def verify_generation(model, gens: GeneratorSet, max_degree: int) -> GenerationReport:
    """Check the basic slice of every degree <= cap against the algebra.

    Projects the basis of each slice that :func:`discover_generators` builds
    onto the degree slice of the algebra generated by ``gens`` and reports
    the worst remainder norm per degree.  Raises :class:`GenerationGap`
    (with the report attached) when some degree exceeds the model's
    ``tolerance``; float slices are cut at the model's ``tol_rank``.
    """
    residuals: Dict[int, float] = {}
    built_for, built = gens.products
    for d, basis in _degree_slices(model, max_degree):
        products = (built[d] if built_for is gens.generators and d in built
                    else [p for _, p in generator_products(list(gens.generators), d)])
        if model.exact and _covers(basis, products):
            residuals[d] = 0.0  # proved by rank
        else:
            residuals[d] = max(_remainders(basis, products)[1], default=0.0)
    report = GenerationReport(max_residual_by_degree=residuals, tolerance=model.tolerance)
    if report.gaps():
        raise GenerationGap(report.gaps(), report=report)
    return report
