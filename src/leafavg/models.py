"""Concrete foliation models of round spheres and their dilation cones.

Three families are implemented, each with the same batch protocol: ``mode``
(the scalar mode of the model's own data, in which a run parses its
polynomials; an isoparametric model's averages are float fits in either
mode), ``closed_form`` (True when ``reynolds`` gives the leaf average in
closed form, False when it must be estimated), ``exact`` (True on a torus and
an exact group, whose ``reynolds`` projects each degree part of ``f``
sphere-orthogonally onto the span of ``slice_rows(degree)`` by
:func:`leafavg.basic_ring.basic_projection`; a float group averages the
pullbacks ``f(g x)``), ``leaf_pairs(ps, qs)`` (the same-leaf verdict of every
pair, within the model's own tolerance, and a cheap proxy for the distance
between its two leaves), ``leaf_mates(points, rng)`` (a random point on the
leaf of every point of an exact :class:`PointBatch` or a float array), and
``leaf_label_names`` with ``leaf_labels`` (leaf-invariant values for exported
point tables).  Each batch method refuses points of the wrong width with
:class:`DimensionMismatch`, read off their shapes.  Each model also owns its
certificate policy: ``engine``, ``tol_rank`` (a float slice's rank cut),
``tolerance`` (the largest certified residual: 0 exact, ``FLOAT_TOLERANCE`` on
a float group, ``FIT_TOLERANCE`` fitted) and ``identity_tol`` (``tolerance``,
or an isoparametric model's own).

Nothing in the package calls a model one point at a time.  The per-point
names ``same_leaf`` (every model), ``random_leaf_mate`` (groups and tori) and
``IsoparametricModel.level_of`` stay as one-line views of the batch methods,
and ``FiniteGroupModel.orbit`` as the exact orbit, because the benchmark
harness in ``perfbench/`` wraps or calls them by name.

* :class:`FiniteGroupModel` -- orbits of a finite orthogonal matrix group.
* :class:`TorusModel` -- orbit closures of a torus acting by rotations on
  complex coordinate planes, encoded by an integer weight matrix.
* :class:`IsoparametricModel` -- level sets of a Cartan-Munzner polynomial;
  leaf averages come from a coarea-weighted kernel estimator on sphere
  samples, seeded and bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import compress
from operator import itemgetter, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EffectiveSampleTooSmall,
    GroupTooLarge,
    NearSingularLeaf,
    NonOrthogonalGenerator,
    NotCartanMunzner,
    OffSphere,
    ScalarModeMismatch,
)
from .exactlinalg import integer_left_kernel, over_lcm
from .polynomials import (
    EXACT,
    FLOAT,
    _EVAL_BLOCK,
    Polynomial,
    format_polynomial,
    monomial_basis,
    radius_squared,
    sphere_inner,
    sphere_mean,
)

_TWO_PI = 2.0 * math.pi
# float matrix comparisons: a generator's orthogonality, and two group
# elements being the same
MATRIX_TOL = 1e-9
# largest coefficient of a float Cartan-Munzner identity residual, and
# largest distance of a float F's level-law multiplicities from integers
MUNZNER_TOL = 1e-9
# same-leaf tolerances of ``leaf_pairs``: of group orbits and torus orbit
# closures, and of the isoparametric level predicate (also how far off the
# sphere its points may be)
CLOSED_FORM_LEAF_TOL = 1e-9
LEVEL_TOL = 1e-6
# the largest sum_t max_j |w_jt| of a torus with exact mates, whose denominators reach 288^sum
MATE_WEIGHT_CAP = 10_000
# most cells (rows times support monomials) of an exact slice's dense integer
# rows, and most monomials a group's slice walk lists
MAX_SLICE_CELLS = 10 ** 7
MAX_SLICE_MONOMIALS = 10 ** 5
# most float coordinates of group orbit images built at once
_ORBIT_CHUNK = 1 << 13
# the isoparametric estimator: the kernel bandwidth (below 1/2, so fit points
# with |F| <= 1 - 2h exist), the smallest effective sample size of a level,
# and the size of a sample cloud when the model names none
BANDWIDTH = 0.05
MIN_ESS = 50.0
SAMPLE_COUNT = 100_000
# residual bounds and rank cuts of float closed-form and fitted certificates
FLOAT_TOLERANCE = 1e-10
FIT_TOLERANCE = 0.05
FLOAT_TOL_RANK = 1e-8
FIT_TOL_RANK = 0.05


# -- sphere sampling ---------------------------------------------------------


def _column_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right from 0.0: the floats of a
    Python ``sum`` of each row."""
    total = np.zeros(values.shape[:-1])
    for i in range(values.shape[-1]):
        total = total + values[..., i]
    return total


def _row_norms(points: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(points, axis=1)`` bit for bit: numpy adds fewer than
    8 squares left to right, so those rows are summed a column at a time
    (about 3x faster on 4 columns); 8 or more it adds pairwise."""
    if points.shape[1] >= 8:
        return np.linalg.norm(points, axis=1)
    total = np.zeros(len(points))
    square = np.empty(len(points))
    for column in points.T:
        total += np.multiply(column, column, out=square)
    return np.sqrt(total, out=total)


def sample_sphere_many(count: int, ambient_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere: normalized standard normals."""
    points = rng.standard_normal((count, ambient_dim))
    norms = _row_norms(points)
    bad = norms < 1e-12
    while bad.any():  # astronomically rare, but keeps the contract clean
        points[bad] = rng.standard_normal((int(bad.sum()), ambient_dim))
        norms = _row_norms(points)
        bad = norms < 1e-12
    points /= norms[:, None]
    return points


def _int_dtype(bound: int, limit: int = 2 ** 63):
    """The dtype for exact integer arithmetic whose every intermediate is
    below ``bound`` in magnitude: int64 when ``bound < limit`` (at most
    ``2^63``) proves that nothing wraps, else ``object`` (Python ints)."""
    return np.int64 if bound < limit else object


class PointBatch:
    """Rational points as Python-int numerators over a per-point denominator
    (point ``i`` is ``nums[i] / dens[i]``) in numpy object arrays, so batch
    arithmetic is exact and never wraps.  Slices and index arrays select."""

    def __init__(self, nums: np.ndarray, dens: np.ndarray):
        self.nums, self.dens = nums, dens

    @classmethod
    def of(cls, points) -> Optional["PointBatch"]:
        """``points`` as a batch; None unless every coordinate is an int or a
        ``Fraction`` (a float array never is)."""
        if isinstance(points, (cls, np.ndarray)):
            return points if isinstance(points, cls) else None
        if not all(isinstance(x, (int, Fraction)) for p in points for x in p):
            return None
        rows, dens = zip(*map(over_lcm, points)) if len(points) else ((), ())
        return cls(np.array(rows, dtype=object), np.array(dens, dtype=object))

    def __len__(self) -> int:
        return len(self.dens)

    def magnitude(self) -> Tuple[int, tuple]:
        """``(m, (nums, dens))``: the largest ``|numerator|`` or
        ``|denominator|`` (0 when empty), and the arrays as int64 when every
        entry fits there, else as they are: one conversion pass over the
        Python ints, and the reductions run on int64."""
        try:
            arrays = self.nums.astype(np.int64), self.dens.astype(np.int64)
        except OverflowError:
            arrays = self.nums, self.dens
        return int(max(max(a.max(initial=0), -int(a.min(initial=0))) for a in arrays)), arrays

    def __getitem__(self, index) -> "PointBatch":
        return PointBatch(self.nums[index], self.dens[index])

    def floats(self) -> np.ndarray:
        """Each coordinate as one correctly rounded int division: ``float`` of
        its ``Fraction`` bit for bit, with OverflowError past the float range."""
        return (self.nums / self.dens[..., None]).astype(float)

    def points(self) -> List[tuple]:
        return [tuple(Fraction(x, den) for x in row)
                for row, den in zip(self.nums.tolist(), self.dens.tolist())]


def _as_floats(points) -> np.ndarray:
    """Points (a batch, a float array or a list) as an ``(n, d)`` float array."""
    batch = PointBatch.of(points)
    return batch.floats() if batch is not None else np.array(points, dtype=float)


def _check_width(ambient_dim: int, *sides) -> None:
    """DimensionMismatch unless every point of each side (a batch, a float
    array or a list) has ``ambient_dim`` coordinates, read off shapes and
    lengths, and the sides (the two halves of a list of pairs) are as long."""
    for points in sides:
        rows = points.nums if isinstance(points, PointBatch) else points
        if isinstance(rows, np.ndarray):
            fits = rows.shape[1:] == (ambient_dim,) or rows.shape == (0,)
        else:
            fits = all(len(p) == ambient_dim for p in rows)
        if not fits:
            raise DimensionMismatch(f"points must have {ambient_dim} coordinates")
    if len({len(points) for points in sides}) > 1:
        raise DimensionMismatch(
            f"{len(sides[0])} first points against {len(sides[1])} second points")


def _float_rows(points, ambient_dim: int) -> np.ndarray:
    """Points (a batch, a float array or a list) as an ``(n, ambient_dim)``
    float array; DimensionMismatch for any other width."""
    _check_width(ambient_dim, points)
    return _as_floats(points).reshape(-1, ambient_dim)


def _mate_of(model, p, rng: np.random.Generator) -> tuple:
    """``model.leaf_mates`` of the one point ``p``: ``Fraction``s for an
    exact mate, floats otherwise."""
    batch = PointBatch.of([tuple(p)])
    mates = model.leaf_mates(batch if batch is not None else np.array([tuple(p)], dtype=float),
                             rng)
    return mates.points()[0] if isinstance(mates, PointBatch) else tuple(mates[0].tolist())


# -- matrices ----------------------------------------------------------------


def _as_matrix(entries, ambient_dim: int, mode: str):
    rows = []
    for row in entries:
        if len(row) != ambient_dim:
            raise DimensionMismatch(f"matrix row length {len(row)} != {ambient_dim}")
        rows.append(tuple(map(Fraction if mode == EXACT else float, row)))
    if len(rows) != ambient_dim:
        raise DimensionMismatch(f"matrix has {len(rows)} rows, expected {ambient_dim}")
    return tuple(rows)


def _infer_mode(matrices) -> str:
    return FLOAT if any(isinstance(x, float) for m in matrices for row in m for x in row) else EXACT


def _identity(ambient_dim: int, mode: str):
    one = Fraction(1) if mode == EXACT else 1.0
    return tuple(tuple(one * (i == j) for j in range(ambient_dim)) for i in range(ambient_dim))


def _mat_mul(a, b, zero):
    """``a b``; the zero entries of ``a`` are skipped and ``zero`` (``Fraction(0)``
    or ``0.0``) starts every sum, so each entry has the type of the scalars."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x), zero) for col in bt) for row in a
    )


def _integer_matrix(matrix) -> Tuple[tuple, int]:
    """``(rows, den)``: integer rows with ``matrix = rows / den`` in lowest terms."""
    nums, den = over_lcm(x for row in matrix for x in row)
    return tuple(zip(*[iter(nums)] * len(matrix))), den


def _det_identity_minus_tg(matrix) -> List[Fraction]:
    """Coefficients of det(I - t*g) as a polynomial in t (exact): ``c_k / den^k``
    for ``g = A / den`` and ``x^n + c_1 x^(n-1) + ... + c_n`` the characteristic
    polynomial of the integer matrix ``A``, by the Faddeev-LeVerrier recursion
    ``M_k = A M_(k-1) + c_(k-1) I``, ``c_k = -tr(A M_k) / k`` (exact in integers)."""
    rows, den = _integer_matrix(matrix)
    n = len(rows)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(map(mul, row, col)) + (coeffs[-1] if i == j else 0)
              for j, col in enumerate(zip(*m))] for i, row in enumerate(rows)]
        coeffs.append(-sum(sum(map(mul, rows[i], col)) for i, col in enumerate(zip(*m))) // k)
    return [Fraction(c, den ** k) for k, c in enumerate(coeffs)]


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _mat_close(a, b, tol: float) -> bool:
    return all(
        abs(float(x) - float(y)) <= tol for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _is_orthogonal(m, mode: str, tol: float) -> bool:
    prod, ident = _mat_mul(tuple(zip(*m)), m, 0), _identity(len(m), mode)
    return prod == ident if mode == EXACT else _mat_close(prod, ident, tol)


def compose_with_matrix(f: Polynomial, matrix) -> Polynomial:
    """The pullback ``x -> f(M x)`` for a square matrix over f's scalars.

    An exact ``M = A / den`` pulls back in integers: with ``D`` the top degree
    of ``f``, the term ``n x^e`` becomes ``n den^(D - |e|) prod_i (A_i x)^e_i``
    and the sum is over ``f``'s denominator times ``den^D``.  A signed
    permutation, ``(M x)_i = s_i x_(perm_i)``, relabels each term in place:
    ``x^e`` becomes ``(prod_i s_i^e_i) x^e'`` with ``e'[perm_i] = e_i``."""
    dim = f.ambient_dim
    if (key := _signed_permutation(matrix)) is not None:  # e' reads e through the inverse of perm
        image = itemgetter(*sorted(range(dim), key=lambda i: abs(key[i]))) if dim > 1 else tuple
        negative = [k < 0 for k in key]
        return Polynomial._trusted(dim, {image(e): -n if sum(compress(e, negative)) & 1 else n
                                         for e, n in f._nums.items()}, f._den, f.mode)
    matrix, den = _integer_matrix(matrix) if f.mode == EXACT else (matrix, 1)
    rows = [
        Polynomial(dim, {tuple(int(k == j) for k in range(dim)): c
                         for j, c in enumerate(row) if c != 0}, f.mode)
        for row in matrix
    ]
    powers: Dict[Tuple[int, int], Polynomial] = {}
    top = max(map(sum, f._nums), default=0)
    out = Polynomial.zero(dim, f.mode)
    for expo, n in f._nums.items():
        term = Polynomial.constant(dim, n * den ** (top - sum(expo)), f.mode)
        for i, e in enumerate(expo):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = rows[i] ** e
                term = term * powers[i, e]
        out = out + term
    return Polynomial._trusted(dim, out._nums, f._den * den ** top, f.mode)


# -- finite matrix groups ----------------------------------------------------


def _signed_permutation(matrix):
    """The key ``k_i = s_i (perm_i + 1)`` of a signed permutation matrix,
    ``matrix[i][perm[i]] = s_i`` in {1, -1} and every other entry zero (so
    orthogonal), or None for any other matrix."""
    entries = [[(j, c) for j, c in enumerate(row) if c != 0] for row in matrix]
    if any(len(nz) != 1 or nz[0][1] not in (1, -1) for nz in entries):
        return None
    key = tuple((nz[0][0] + 1) * int(nz[0][1]) for nz in entries)
    return key if len(set(map(abs, key))) == len(key) else None


class _SignedTable(NamedTuple):
    """A finite group's signed-permutation elements, and the rest; exponents
    move through the permutation alone, so ``pullbacks`` has one per permutation."""

    perms: np.ndarray  # (n, d) ints: row i of element k is nonzero in column perms[k, i]
    signs: np.ndarray  # (n, d) ints: that entry, 1 or -1
    # per permutation, in order of first appearance: (exponent map e -> e',
    # the bit mask of the negative rows of each element that has it)
    pullbacks: list
    sign_sums: dict  # odd-exponent mask -> per pullback, the sum of its elements' signs
    others: tuple  # the elements that are not signed permutations
    # with others in exact mode: every element k as integers[0][k] / integers[1][k]
    integers: Optional[Tuple[np.ndarray, np.ndarray]]


class FiniteGroupModel:
    """Orbit foliation of a finite group of orthogonal matrices.

    Leaves are the (finite) orbits; the leaf average is the group average
    ``(1/|G|) sum_g f(g x)``: on an exact group the projection onto the
    invariants that ``slice_rows`` span, on a float group the mean of the
    pullbacks by :func:`compose_with_matrix`.

    Most desk-scale groups consist of signed permutations: an exact
    orthogonal matrix with one nonzero entry per row has entries +-1, so
    ``(g x)_i = s_i x_{perm_i}``.  An exact-mode model builds, once and on
    first use, a table of its elements that are signed permutations: an
    index array of the permutations and an int array of their signs, one
    row per element, read off the keys ``k_i = s_i (perm_i + 1)`` the closure
    ran on when every generator is one; then those keys are all it keeps, and
    ``elements`` (the ``Fraction`` matrices) is built on first read.
    ``slice_rows`` reads a monomial's signed orbit sum off the table, one
    image per distinct permutation (24 for B4's 384 elements).
    When the table holds every element, orbit distances take the orbit of a
    point as ``float(p)[perm] * sign``; negating and moving a float are
    exact, so each image is the float of the exact image.  The mates of an
    exact :class:`PointBatch` are then one gather through the same table.
    When it does not, an exact-mode model keeps every element as an integer
    matrix over one denominator for exact points, and other points meet the
    exact products of ``orbit``.
    """

    closed_form = True
    leaf_label_names = ()
    sample_points = mc_samples = None  # no sampler: averages are closed form
    engine = "exact"
    tol_rank = FLOAT_TOL_RANK

    def __init__(self, ambient_dim: int, elements, generators, mode: str, name: str = "",
                 signed=None):
        self.ambient_dim = ambient_dim
        if elements is not None:
            self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.mode = mode
        self.exact = mode == EXACT
        self.tolerance = self.identity_tol = 0.0 if self.exact else FLOAT_TOLERANCE
        self._table = None
        # the key of every element when the closure ran on them
        self._signed = signed
        self.name = name or f"finite_group(dim={ambient_dim}, order={self.order})"

    @cached_property
    def elements(self) -> tuple:
        n, zero = self.ambient_dim, Fraction(0)  # row k: the sign of k in column |k| - 1
        rows = {k: tuple(Fraction(k // abs(k)) if j == abs(k) - 1 else zero for j in range(n))
                for k in range(-n, n + 1) if k}
        return tuple(tuple(map(rows.__getitem__, key)) for key in self._signed)

    @property
    def order(self) -> int:
        return len(self._signed if self._signed is not None else self.elements)

    def _signed_table(self) -> _SignedTable:
        if self._table is None:
            found, others, d = self._signed, (), self.ambient_dim
            if found is None:
                found = [_signed_permutation(g) if self.mode == EXACT else None
                         for g in self.elements]
                others = tuple(g for g, key in zip(self.elements, found) if key is None)
            keys = np.array([key for key in found if key is not None], dtype=np.int64).reshape(-1, d)
            perms, signs = (np.abs(keys) - 1).astype(np.intp), np.sign(keys)
            masks = (keys < 0) @ np.array([1 << i for i in range(d)], dtype=_int_dtype(1 << d))
            # x^e pulls back to sign * x^e' with e'[perm_i] = e_i, so e' reads
            # e through the inverse permutation
            negated: Dict[tuple, list] = {}
            for inverse, mask in zip(map(tuple, np.argsort(perms, axis=1).tolist()), masks.tolist()):
                negated.setdefault(inverse, []).append(mask)
            pullbacks = [(itemgetter(*inverse) if len(inverse) > 1 else tuple, masks)
                         for inverse, masks in negated.items()]
            integers = None
            if others and self.mode == EXACT:
                integers = tuple(np.array(part, dtype=object)
                                 for part in zip(*map(_integer_matrix, self.elements)))
            self._table = _SignedTable(perms, signs, pullbacks, {}, others, integers)
        return self._table

    def _signed_orbit_sum(self, expo: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
        """``sum_g (x^expo)(g x)`` over the signed permutations as integer counts
        per monomial, with every image of ``expo`` a key (also a zero count)."""
        table = self._signed_table()
        odd = sum(1 << i for i, e in enumerate(expo) if e & 1)
        if odd not in table.sign_sums:
            # an element's sign is the product of s_i over the odd exponents e_i
            table.sign_sums[odd] = [len(masks) - 2 * sum((odd & m).bit_count() & 1 for m in masks)
                                    for _, masks in table.pullbacks]
        counts: Dict[Tuple[int, ...], int] = {}
        for (image, _), total in zip(table.pullbacks, table.sign_sums[odd]):
            key = image(expo)
            counts[key] = counts.get(key, 0) + total
        return counts

    def slice_rows(self, degree: int) -> List[dict]:
        """Rows (maps from monomial to nonzero coefficient) spanning the
        degree's invariants, walking its monomials: on an exact group the
        combinations ``v`` of signed orbit sums with ``v(g x) = v`` for each
        generator ``g`` that is not a signed permutation (an integer left
        kernel over one denominator), on a float group each monomial's average.
        A :class:`ConfigError` refuses a walk past ``MAX_SLICE_MONOMIALS``."""
        if (count := math.comb(self.ambient_dim + degree - 1, degree)) > MAX_SLICE_MONOMIALS:
            raise ConfigError(f"the degree-{degree} slice walks {count} monomials of ambient_dim = "
                              f"{self.ambient_dim}, past MAX_SLICE_MONOMIALS = {MAX_SLICE_MONOMIALS}")
        monomials = monomial_basis(self.ambient_dim, degree)
        if not self.exact:
            return [self.reynolds(Polynomial.monomial(self.ambient_dim, e, 1, self.mode)).terms
                    for e in monomials]
        rows, seen = [], set()
        for expo in monomials:
            if expo not in seen:
                rows.append(self._signed_orbit_sum(expo))
                seen.update(rows[-1])
        if self._signed_table().others:  # so some generator is not a signed permutation
            gens = [g for g in self.generators if _signed_permutation(g) is None]
            # p(g x) - p per orbit sum p and generator g, as numerators over one denominator
            moved = [[compose_with_matrix(p, g) - p for g in gens]
                     for p in (Polynomial(self.ambient_dim, row) for row in rows)]
            den = math.lcm(*(q._den for row in moved for q in row))
            kernel = integer_left_kernel([[q._nums.get(e, 0) * (den // q._den) for q in row
                                           for e in monomials] for row in moved])
            rows = [{e: sum(c * row.get(e, 0) for c, row in zip(v, rows)) for e in monomials}
                    for v in kernel]
        return [{e: c for e, c in row.items() if c} for row in rows]

    def det_counts(self) -> Counter:
        """det(I - t*g) of every element as coefficients in t, counted: for a signed
        permutation the product over its cycles c of ``1 - e_c t^|c|`` (``e_c`` the
        product of the signs on c), each permutation's cycles found once; for any
        other element Faddeev-LeVerrier."""
        table, counts, d = self._signed_table(), Counter(), self.ambient_dim
        for image, masks in table.pullbacks:
            # its cycles as row masks are its inverse's, which image reads off 0..d-1
            inverse, cycles = image(tuple(range(d))), set()
            for i in range(d):
                cycle, j = 1 << i, inverse[i]
                while j != i:
                    cycle, j = cycle | 1 << j, inverse[j]
                cycles.add(cycle)
            for odds, count in Counter(tuple((m & c).bit_count() & 1 for c in cycles)
                                       for m in masks).items():
                poly = [1] + [0] * d
                for c, odd in zip(cycles, odds):
                    n = c.bit_count()
                    poly = [x - (-1) ** odd * poly[k - n] if k >= n else x for k, x in enumerate(poly)]
                counts[tuple(poly)] += count
        counts.update(tuple(_det_identity_minus_tg(g)) for g in table.others)
        return counts

    def reynolds(self, f: Polynomial) -> Polynomial:
        """Group average of ``f``: on an exact group the sphere-orthogonal
        projection of each degree part onto the basic slice that
        ``slice_rows`` span (:func:`~leafavg.basic_ring.basic_projection`),
        on a float group the mean of the pullbacks ``f(g x)``."""
        if f.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("polynomial dimension does not match group")
        if f.mode != self.mode:
            raise ScalarModeMismatch(
                f"{self.mode} model cannot average a {f.mode} polynomial"
            )
        if self.mode == EXACT:
            from .basic_ring import basic_projection  # basic_ring imports this module
            return basic_projection(self, f)
        pullbacks = (compose_with_matrix(f, g) for g in self.elements)
        return reduce(Polynomial.__add__, pullbacks).scale(1.0 / self.order)

    def same_leaf(self, p, q) -> bool:
        return bool(self.leaf_pairs([tuple(p)], [tuple(q)])[0][0])

    def leaf_pairs(self, ps, qs) -> Tuple[np.ndarray, np.ndarray]:
        """For every pair ``(ps[i], qs[i])``: whether some element carries
        ``ps[i]`` to within ``CLOSED_FORM_LEAF_TOL`` of ``qs[i]``, and the
        distance from ``qs[i]`` to the orbit of ``ps[i]``, read off one
        nearest orbit distance per pair; the orbits are built
        ``_ORBIT_CHUNK`` float coordinates at a time."""
        _check_width(self.ambient_dim, ps, qs)
        step = max(1, _ORBIT_CHUNK // (self.order * self.ambient_dim))
        nearest = [np.empty(0)]
        for i in range(0, len(ps), step):
            nearest.append(self._orbit_sq_distances_many(ps[i:i + step], qs[i:i + step]).min(axis=1))
        nearest = np.concatenate(nearest)
        return nearest < CLOSED_FORM_LEAF_TOL * CLOSED_FORM_LEAF_TOL, np.sqrt(nearest)

    def orbit(self, p) -> List[tuple]:
        p = tuple(p)
        return [_mat_vec(g, p) for g in self.elements]

    def _float_orbits(self, ps) -> np.ndarray:
        """``(n, order, d)``: the float image of ``ps[i]`` under each element:
        one gather of the floats when every element is a signed permutation,
        else ``_images`` of exact points on an exact group, then rounded,
        or of the floats."""
        table = self._signed_table()
        if not table.others:
            return _as_floats(ps)[:, table.perms] * table.signs
        batch = PointBatch.of(ps) if table.integers is not None else None
        n, k = len(ps), self.order
        points = _as_floats(ps) if batch is None else batch
        images = self._images(points[np.repeat(np.arange(n), k)], np.tile(np.arange(k), n))
        return (images if batch is None else images.floats()).reshape(n, k, self.ambient_dim)

    def _orbit_sq_distances_many(self, ps, qs) -> np.ndarray:
        """``(n, order)``: squared float distance from ``qs[i]`` to each point of
        the orbit of ``ps[i]``, summed left to right over the coordinates and
        squared by ``np.float_power`` (the C library's ``pow``, as Python's
        ``**``): the floats of a Python sum over the exact orbit."""
        return _column_sum(np.float_power(self._float_orbits(ps) - _as_floats(qs)[:, None, :], 2))

    def leaf_labels(self, points) -> np.ndarray:
        return np.zeros((len(points), 0))

    def _images(self, points, ks):
        """Element ``ks[i]`` applied to point ``i`` of an exact batch on an
        exact group, or to row ``i`` of a float array with the floats of
        ``_mat_vec``: a gather through the signed table when every element
        is a signed permutation, else integer matrix products or float
        products summed left to right."""
        table, exact = self._signed_table(), isinstance(points, PointBatch)
        if not table.others:
            rows = np.arange(len(points))[:, None]
            images = (points.nums if exact else points)[rows, table.perms[ks]] * table.signs[ks]
            return PointBatch(images, points.dens) if exact else images
        if exact:
            matrices, dens = table.integers
            return PointBatch(np.matmul(matrices[ks], points.nums[..., None])[..., 0],
                              points.dens * dens[ks])
        d = self.ambient_dim
        matrices = np.array([self.elements[k] for k in ks], dtype=float).reshape(-1, d, d)
        return _column_sum(matrices * points[:, None, :])

    def leaf_mates(self, batch, rng: np.random.Generator):
        """``g p`` for a uniformly drawn element ``g`` (row ``k`` of the signed
        table is element ``k``) and each point ``p`` of an exact batch (exact
        on an exact group) or a float array: one draw of all element indices
        gives the draws of one call per point."""
        _check_width(self.ambient_dim, batch)
        ks = rng.integers(self.order, size=len(batch))
        if not (isinstance(batch, PointBatch) and self.mode == EXACT):
            batch = _as_floats(batch).reshape(-1, self.ambient_dim)
        return self._images(batch, ks)

    def random_leaf_mate(self, p, rng: np.random.Generator):
        return _mate_of(self, p, rng)


def group_closure(
    generators,
    max_group_size: int = 512,
    *,
    name: str = "",
) -> FiniteGroupModel:
    """Close a generator list under products into a :class:`FiniteGroupModel`.

    The group is float when some generator entry is a float, exact
    otherwise.  Breadth-first and deterministic, on keys
    (:func:`_signed_permutation`) when every exact generator is a signed
    permutation.  Raises :class:`NonOrthogonalGenerator`
    for a bad generator and :class:`GroupTooLarge` when the closure exceeds
    ``max_group_size`` (the signature of an infinite or huge group).
    """
    generators = list(generators)
    if not generators:
        raise ConfigError("at least one generator is required")
    if max_group_size < 1:
        raise ConfigError("max_group_size must be positive")
    ambient_dim, mode = len(generators[0]), _infer_mode(generators)
    gens = [_as_matrix(g, ambient_dim, mode) for g in generators]
    signed = [_signed_permutation(g) if mode == EXACT else None for g in gens]
    for g, key in zip(gens, signed):
        if key is None and not _is_orthogonal(g, mode, MATRIX_TOL):
            raise NonOrthogonalGenerator(f"generator is not orthogonal within {MATRIX_TOL}")

    if None not in signed:
        # row i of ``a g`` is row |k| - 1 of g times the sign of k = a_i: a
        # table whose entry k (negative k from the end) is that row's key
        start = tuple(range(1, ambient_dim + 1))
        factors = [(0, *key, *(-k for k in reversed(key))) for key in signed]

        def multiply(a, table):
            return tuple(map(table.__getitem__, a))
    elif mode == EXACT:
        # integer matrices over one denominator, in lowest terms, so that
        # equal elements have equal keys
        start = _integer_matrix(_identity(ambient_dim, mode))
        factors = [(tuple(zip(*rows)), den) for rows, den in map(_integer_matrix, gens)]

        def multiply(a, g):
            (rows, den), (cols, factor_den) = a, g
            prod = [[sum(map(mul, row, col)) for col in cols] for row in rows]
            c = math.gcd(den * factor_den, *(x for row in prod for x in row))
            return tuple(tuple(x // c for x in row) for row in prod), den * factor_den // c

        def element(key):
            return tuple(tuple(Fraction(x, key[1]) for x in row) for row in key[0])
    else:
        start, factors, element = _identity(ambient_dim, mode), gens, None
        multiply = partial(_mat_mul, zero=0.0)
    keys, seen = [start], {start}
    # breadth first: the list grows behind the element being multiplied
    for current in keys:
        for g in factors:
            key = multiply(current, g)
            if (key in seen if mode == EXACT
                    else any(_mat_close(key, e, MATRIX_TOL) for e in keys)):
                continue
            seen.add(key)
            keys.append(key)
            if len(keys) > max_group_size:
                raise GroupTooLarge(f"group closure exceeded {max_group_size} elements")
    if None not in signed:  # the matrices are built from the keys on first read
        return FiniteGroupModel(ambient_dim, None, gens, mode, name=name, signed=keys)
    return FiniteGroupModel(ambient_dim, map(element, keys) if element else keys, gens, mode, name=name)


# -- torus actions -----------------------------------------------------------


def _weight(x) -> int:
    """A weight-matrix entry as an int: a ValueError for a boolean or a
    number with a fractional part (``2.0`` reads as 2)."""
    if isinstance(x, bool) or not isinstance(x, str) and x % 1:
        raise ValueError(x)
    return int(x)


@lru_cache(maxsize=None)
def _realify_pair(a: int, b: int):
    """Expansion of ``z^a zbar^b`` in real coordinates: ((px, py), re, im)."""
    out: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for s in range(a + 1):
        ca = math.comb(a, s)
        for t in range(b + 1):
            c = ca * math.comb(b, t)
            re, im = ((c, 0), (0, c), (-c, 0), (0, -c))[((a - s) - (b - t)) % 4]
            key = (s + t, (a + b) - (s + t))
            old_re, old_im = out.get(key, (0, 0))
            out[key] = (old_re + re, old_im + im)
    return tuple((key, re, im) for key, (re, im) in out.items())


def _realify(ab: Tuple[Tuple[int, int], ...]):
    """Expansion of ``prod_j z_j^a_j zbar_j^b_j`` in real plane coordinates:
    ``(exponents, re, im)`` per real monomial, in Gaussian integers."""
    partial = {(): (1, 0)}
    for a, b in ab:
        partial = {prefix + pair: (cr * pr - ci * pi, cr * pi + ci * pr)
                   for prefix, (cr, ci) in partial.items() for pair, pr, pi in _realify_pair(a, b)}
    return [(prefix, cr, ci) for prefix, (cr, ci) in partial.items()]


def _gaussian_power(x, y, n: int):
    """``(x + i y)^n`` for ``n >= 1`` by squaring, through the bits of ``n``
    from the top, so that every intermediate is a power at most ``n``."""
    c, s = x, y
    for bit in bin(n)[3:]:
        c, s = c * c - s * s, 2 * c * s
        if bit == "1":
            c, s = c * x - s * y, c * y + s * x
    return c, s


class TorusModel:
    """Orbit-closure foliation of a torus rotating complex coordinate planes.

    Coordinates come in ``m`` planes ``(x_{2j+1}, x_{2j+2})`` followed by
    ``n_fix`` fixed coordinates.  Row ``j`` of the integer ``weight_matrix``
    gives the rotation speeds of plane ``j`` in each torus parameter.  A
    complex monomial ``z^a zbar^b`` is invariant precisely when
    ``W^T (a - b) = 0``; this spans the basic slices that averages project
    onto and, through the saturated kernel lattice of ``W``, gives the
    same-leaf phase test.
    """

    closed_form = exact = True
    sample_points = mc_samples = None  # no sampler: averages are closed form
    engine = "exact"
    tol_rank = FLOAT_TOL_RANK
    tolerance = identity_tol = 0.0

    def __init__(self, weight_matrix, n_fix: int = 0, name: str = ""):
        try:
            rows = [tuple(map(_weight, row)) for row in weight_matrix]
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"weight matrix entries must be integers, got {weight_matrix!r}") from None
        if not rows:
            raise ConfigError("weight matrix needs at least one row (one plane)")
        width = len(rows[0])
        if width < 1 or any(len(r) != width for r in rows):
            raise ConfigError("weight matrix rows must share a positive length")
        if n_fix < 0:
            raise ConfigError("n_fix must be non-negative")
        self.weight_matrix = tuple(rows)
        self.n_planes = len(rows)
        self.torus_rank = width
        self.n_fix = n_fix
        self.ambient_dim = 2 * self.n_planes + n_fix
        self.mode = EXACT  # integer weights; averages of exact input are exact
        self.name = name or f"torus(weights={rows}, n_fix={n_fix})"
        self.leaf_label_names = tuple(f"radius_{j + 1}" for j in range(self.n_planes))
        self._kernels: Dict[Tuple[int, ...], list] = {}

    # -- averaging ---------------------------------------------------------

    def reynolds(self, f: Polynomial) -> Polynomial:
        """Torus average: the sphere-orthogonal projection of each degree
        part of ``f`` onto the basic slice that ``slice_rows`` span
        (:func:`~leafavg.basic_ring.basic_projection`)."""
        if f.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("polynomial dimension does not match torus model")
        from .basic_ring import basic_projection  # basic_ring imports this module
        return basic_projection(self, f)

    def slice_rows(self, degree: int) -> List[dict]:
        """Integer rows, as maps from monomial to nonzero coefficient,
        spanning the image of ``reynolds`` on the degree-``degree`` slice:
        the real and imaginary parts of each balanced ``z^a zbar^b w^c`` of
        the degree, one of each conjugate pair, read off the monomial with
        exponents ``(a_1, b_1, ..., a_m, b_m, c)``.  No other monomial is
        visited: the last plane's imbalance is read off its weights.  Each
        monomial of the fixed coordinates alone is a row on its own monomial,
        so a :class:`ConfigError` refuses their count squared past
        ``MAX_SLICE_CELLS`` before any is listed."""
        if (count := math.comb(self.n_fix + degree - 1, degree)) ** 2 > MAX_SLICE_CELLS:
            raise ConfigError(f"n_fix = {self.n_fix} gives {count} degree-{degree} invariant rows, each on "
                              f"its own monomial, past MAX_SLICE_CELLS = {MAX_SLICE_CELLS} cells")
        *first, last = self.weight_matrix
        pivot = next((t for t, w in enumerate(last) if w), None)
        # the (a_j, b_j) of the first planes with the degree left, the first
        # pair with a_j != b_j having a_j < b_j (the smaller of a conjugate pair)
        heads = [((), degree)]
        for _ in first:
            heads = [(ab + ((a, b),), left - a - b) for ab, left in heads for a in range(left + 1)
                     for b in range(left - a + 1) if a <= b or any(x != y for x, y in ab)]
        rows = []
        for ab, left in heads:
            sums = [sum(row[t] * (a - b) for row, (a, b) in zip(first, ab)) for t in range(self.torus_rank)]
            if pivot is None:
                ks = () if any(sums) else range(-left, left + 1)
            else:
                k, rest = divmod(-sums[pivot], last[pivot])
                ks = () if rest or any(s + w * k for s, w in zip(sums, last)) else (k,)
            decided = any(a != b for a, b in ab)
            for k in (k for k in ks if decided or k <= 0):
                for n in range(abs(k), left + 1, 2):
                    parts = _realify(ab + (((n + k) // 2, (n - k) // 2),))
                    for c in monomial_basis(self.n_fix, left - n):
                        rows.append({prefix + c: re for prefix, re, _ in parts if re})
                        if decided or k:  # z^a zbar^a is real
                            rows.append({prefix + c: im for prefix, _, im in parts if im})
        return rows

    # -- leaves ------------------------------------------------------------

    def leaf_labels(self, points) -> np.ndarray:
        """``(n, n_planes)`` plane radii, constant on every leaf."""
        return self._planes(_float_rows(points, self.ambient_dim), math.hypot)

    def _planes(self, rows: np.ndarray, fn, first: int = 0) -> np.ndarray:
        """``(n, n_planes)``: ``fn(x, y)`` (``first=0``) or ``fn(y, x)``
        (``first=1``) of each plane ``(x, y)`` of each row, mapped over the
        columns (numpy's ``hypot`` and ``arctan2`` may round differently from
        the C library's)."""
        columns = [list(map(fn, rows[:, 2 * j + first].tolist(),
                            rows[:, 2 * j + 1 - first].tolist())) for j in range(self.n_planes)]
        return np.array(columns, dtype=float).reshape(self.n_planes, len(rows)).T

    def _kernel(self, active: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], int]]:
        """``(v, max(1, |v|_1))`` for each vector ``v`` of the saturated integer
        kernel of the weight rows of the planes ``active``; cached per tuple."""
        got = self._kernels.get(active)
        if got is None:
            got = [(tuple(vec), max(1, sum(abs(v) for v in vec)))
                   for vec in integer_left_kernel([self.weight_matrix[j] for j in active])]
            self._kernels[active] = got
        return got

    def _phase_gaps(self, phases, radii_p, radii_q):
        """Phase-lattice test of the planes where both radii exceed
        ``CLOSED_FORM_LEAF_TOL``, for the ``(n, n_planes)`` phase differences
        ``arg q - arg p`` of ``n`` pairs.

        Yields ``(rows, gaps)`` for the pairs ``rows`` that share one set of
        such planes, with ``(gap, weight)`` in ``gaps`` for each vector ``v``
        of the saturated integer kernel of those planes' weight rows: ``gap``
        is each pair's phase combination ``v . (arg q - arg p)`` wrapped to
        ``[0, pi]`` by ``math.remainder``, zero on a common orbit closure, and
        ``weight = max(1, |v|_1)``.
        """
        active = (radii_p > CLOSED_FORM_LEAF_TOL) & (radii_q > CLOSED_FORM_LEAF_TOL)
        sets, which = np.unique(active, axis=0, return_inverse=True)
        for k, planes in enumerate(sets.tolist()):
            planes = tuple(j for j, on in enumerate(planes) if on)
            if not planes:
                continue
            rows = np.flatnonzero(which.ravel() == k)
            gaps = []
            for vec, weight in self._kernel(planes):
                total = _column_sum(phases[rows][:, list(planes)] * np.array(vec, dtype=float))
                gaps.append((np.abs(list(map(math.remainder, total.tolist(),
                                             [_TWO_PI] * len(rows)))), weight))
            yield rows, gaps

    def leaf_pairs(self, ps, qs) -> Tuple[np.ndarray, np.ndarray]:
        """The same-leaf verdict and the distance proxy of every pair
        ``(ps[i], qs[i])``, from arrays of floats, radii and phases with the
        floats of a loop over the pairs.  Same leaf: fixed coordinates and
        radii within ``tol = CLOSED_FORM_LEAF_TOL``, and each kernel vector's
        phase gap within ``tol * max(1, |v|_1)``.  Proxy: the larger of the
        radial distance and the worst weighted phase gap."""
        tol, m = CLOSED_FORM_LEAF_TOL, 2 * self.n_planes
        _check_width(self.ambient_dim, ps, qs)
        p, q = _float_rows(ps, self.ambient_dim), _float_rows(qs, self.ambient_dim)
        radii_p, radii_q = self._planes(p, math.hypot), self._planes(q, math.hypot)
        phases = self._planes(q, math.atan2, 1) - self._planes(p, math.atan2, 1)
        same = ~(np.abs(np.hstack([p[:, m:] - q[:, m:], radii_p - radii_q])) > tol).any(axis=1)
        radial = np.sqrt(_column_sum(np.float_power(radii_p - radii_q, 2))
                         + _column_sum(np.float_power(p[:, m:] - q[:, m:], 2)))
        phase = np.zeros(len(p))
        for rows, gaps in self._phase_gaps(phases, radii_p, radii_q):
            for gap, weight in gaps:
                same[rows] &= gap <= tol * weight
            if gaps:  # Python's max: the first gap, then any larger one
                phase[rows] = reduce(lambda a, b: np.where(b > a, b, a),
                                     [gap / weight for gap, weight in gaps])
        return same, np.where(phase > radial, phase, radial)

    def same_leaf(self, p, q) -> bool:
        return bool(self.leaf_pairs([tuple(p)], [tuple(q)])[0][0])

    def leaf_mates(self, batch, rng: np.random.Generator):
        """A point on the leaf of each point of an exact batch (an exact
        rational rotation) or a float array (a float rotation): one draw of
        all rotations gives the draws of one call per point.  Exactly,
        parameter ``t`` turns by ``cos + i sin = (b + i a)^2 / (a^2 + b^2)``
        in lowest terms, plane ``j`` by the product of their ``w_jt``-th
        powers in Gaussian integers, and every coordinate goes over
        ``prod_t den_t^(max_j |w_jt|)``, refused with :class:`ConfigError`
        past ``sum_t max_j |w_jt| = MATE_WEIGHT_CAP``.  The exact arithmetic
        runs in int64 when ``2 m 288^(sum_t max_j |w_jt|) < 2^63``, with ``m``
        the batch's :meth:`~PointBatch.magnitude` (``288 = 12^2 + 12^2``
        bounds every ``den_t``, and the powers are taken by squaring, never
        past ``|w_jt|``, so this bounds every intermediate), and in Python ints
        otherwise; either way the mates are Python ints.  In floats, plane
        ``j`` turns by ``sum_t w_jt theta_t``, summed left to right, through
        ``math.cos`` and ``math.sin``."""
        _check_width(self.ambient_dim, batch)
        if not isinstance(batch, PointBatch):
            theta = rng.uniform(0.0, _TWO_PI, size=(len(batch), self.torus_rank))
            angles = _column_sum(theta[:, None, :] * np.array(self.weight_matrix, dtype=float))
            cos, sin = (np.vectorize(f, otypes=[float])(angles) for f in (math.cos, math.sin))
            xs, ys = slice(0, 2 * self.n_planes, 2), slice(1, 2 * self.n_planes, 2)
            x, y, out = batch[:, xs], batch[:, ys], batch.copy()
            out[:, xs], out[:, ys] = cos * x - sin * y, sin * x + cos * y
            return out
        tops = [max(abs(row[t]) for row in self.weight_matrix) for t in range(self.torus_rank)]
        if sum(tops) > MATE_WEIGHT_CAP:
            raise ConfigError(f"weight_matrix: exact torus mates need sum_t max_j |w_jt| <= {MATE_WEIGHT_CAP}")
        draws = rng.integers([-12, 1], [13, 13], size=(len(batch), self.torus_rank, 2))
        m, ints = batch.magnitude()
        dtype = _int_dtype(2 * m * 288 ** sum(tops))
        nums, dens = ints if dtype is np.int64 else (batch.nums, batch.dens)
        a, b = draws.astype(dtype, copy=False).transpose(2, 1, 0)
        cos, sin, den = b * b - a * a, 2 * a * b, a * a + b * b
        g = np.gcd(np.gcd(cos, sin), den)
        cos, sin, den = cos // g, sin // g, den // g
        common = np.prod([d ** top for d, top in zip(den, tops)], axis=0)
        out = []
        for j, weights in enumerate(self.weight_matrix):
            c, s, scale = 1, 0, 1
            for t, w in enumerate(weights):
                if w:
                    pc, ps = _gaussian_power(cos[t], sin[t] if w > 0 else -sin[t], abs(w))
                    c, s = c * pc - s * ps, c * ps + s * pc
                scale = scale * den[t] ** (tops[t] - abs(w))
            x, y = nums[:, 2 * j], nums[:, 2 * j + 1]
            out += [(c * x - s * y) * scale, (s * x + c * y) * scale]
        out += [nums[:, i] * common for i in range(2 * self.n_planes, self.ambient_dim)]
        return PointBatch(np.stack(out, axis=1).astype(object, copy=False),
                          (dens * common).astype(object, copy=False))

    def random_leaf_mate(self, p, rng: np.random.Generator):
        return _mate_of(self, p, rng)


# -- isoparametric level sets ------------------------------------------------


def validate_munzner(F: Polynomial, g: int):
    """Admission test for a degree-``g`` Cartan-Munzner candidate.

    Verifies symbolically that ``|grad F|^2 = g^2 r^(2g-2)`` and that the
    Laplacian of ``F`` is a scalar multiple ``c`` of ``r^(g-2)`` (forced to
    ``c = 0`` when ``g - 2`` is odd, where no such polynomial exists).
    Returns ``c``.  Exact-mode residuals must vanish identically; float-mode
    residual coefficients must stay within ``MUNZNER_TOL``.
    """
    if g < 1:
        raise NotCartanMunzner(f"degree must be positive, got {g}")
    if not F.is_homogeneous() or F.homogeneous_degree() != g or F.is_zero:
        raise NotCartanMunzner(f"candidate is not homogeneous of degree {g}")
    r2 = radius_squared(F.ambient_dim, F.mode)
    grad = F.gradient()
    grad_sq = Polynomial.zero(F.ambient_dim, F.mode)
    for part in grad:
        grad_sq = grad_sq + part * part
    target = (r2 ** (g - 1)).scale(g * g)
    grad_res = grad_sq - target

    lap = F.laplacian()
    if g >= 2 and (g - 2) % 2 == 0:
        radial = r2 ** ((g - 2) // 2)
        denom = sphere_inner(radial, radial)
        c = sphere_inner(lap, radial) / denom
        lap_res = lap - radial.scale(c)
    else:
        c = Fraction(0) if F.mode == EXACT else 0.0
        lap_res = lap

    if F.mode == EXACT:
        ok = grad_res.is_zero and lap_res.is_zero
    else:
        ok = grad_res.max_abs_coeff() <= MUNZNER_TOL and lap_res.max_abs_coeff() <= MUNZNER_TOL
    if not ok:
        raise NotCartanMunzner(
            "Cartan-Munzner identities fail",
            gradient_residual=format_polynomial(grad_res),
            laplacian_residual=format_polynomial(lap_res),
        )
    return c


# panels of the composite Simpson rule that integrates a band's probability
_SIMPSON_PANELS = 1 << 10


class LevelLaw:
    """The law of ``F(x)`` for a uniform point ``x`` of the sphere.

    Munzner (*Math. Ann.* 251, 1980): ``(1 - F)/2 ~ Beta((m1 + 1)/2,
    (m2 + 1)/2)``, where ``m1`` and ``m2`` are the multiplicities of the
    principal curvatures.  In the angle ``phi`` with ``F = cos 2 phi`` the
    density is proportional to ``sin^m1(phi) cos^m2(phi)`` on ``[0, pi/2]``:
    smooth even when a multiplicity is 0, and log-concave, so its maximum
    on an interval is at the mode ``atan sqrt(m1/m2)`` or at an end.
    """

    def __init__(self, m1: int, m2: int):
        self.m1, self.m2 = m1, m2
        a, b = (m1 + 1) / 2, (m2 + 1) / 2
        self._scale = 2.0 * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
        self._mode = math.atan2(math.sqrt(m1), math.sqrt(m2))

    @classmethod
    def of(cls, F: Polynomial, g: int) -> "LevelLaw":
        """The law of an admitted Cartan-Munzner polynomial, solved from its
        exact sphere moments ``E[F]`` and ``E[F^2]`` by the Beta method of
        moments.  ``NotCartanMunzner`` unless ``2a`` and ``2b`` are positive
        integers (within 1e-9 for a float ``F``) and the multiplicities fit
        the sphere, ``n - 2 = g (m1 + m2) / 2``; neither fails for an ``F``
        that ``validate_munzner`` admits."""
        first, second = sphere_mean(F), sphere_inner(F, F)
        mean = (1 - first) / 2  # of u = (1 - F)/2
        var = (1 - 2 * first + second) / 4 - mean * mean
        if not var > 0:
            raise NotCartanMunzner("level polynomial is constant on the sphere")
        total = mean * (1 - mean) / var - 1  # a + b
        m1, m2 = (2 * mean * total - 1, 2 * (1 - mean) * total - 1)
        mults = [round(m) for m in (m1, m2)]
        tol = 0 if F.mode == EXACT else MUNZNER_TOL
        whole = all(abs(m - k) <= tol for m, k in zip((m1, m2), mults))
        if not whole or min(mults) < 0 or 2 * (F.ambient_dim - 2) != g * sum(mults):
            raise NotCartanMunzner(
                f"level law Beta(a, b) with 2a = {float(m1) + 1!r}, 2b = {float(m2) + 1!r} "
                f"does not fit multiplicities of g = {g} on R^{F.ambient_dim}"
            )
        return cls(*mults)

    def _density(self, phi: np.ndarray) -> np.ndarray:
        return self._scale * np.sin(phi) ** self.m1 * np.cos(phi) ** self.m2

    @staticmethod
    def _angles(lo: float, hi: float) -> Tuple[float, float]:
        """The angles ``phi`` of the levels ``[lo, hi]`` clipped to [-1, 1]."""
        return (math.acos(min(max(hi, -1.0), 1.0)) / 2, math.acos(min(max(lo, -1.0), 1.0)) / 2)

    def band_probability(self, lo: float, hi: float) -> float:
        """``P(lo <= F(x) <= hi)``, by the composite Simpson rule in ``phi``."""
        start, stop = self._angles(lo, hi)
        if not start < stop:
            return 0.0
        f = self._density(np.linspace(start, stop, 2 * _SIMPSON_PANELS + 1))
        total = f[0] + f[-1] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum()
        return min(1.0, float(total) * (stop - start) / (6 * _SIMPSON_PANELS))

    def draw(self, count: int, lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
        """``count`` levels of the law restricted to ``[lo, hi]``, by rejection
        from a uniform ``phi`` on the band under the density's maximum there."""
        start, stop = self._angles(lo, hi)
        top = float(self._density(np.array(min(max(self._mode, start), stop))))
        # the expected share of tries kept; a band of probability 0 draws none
        accept = self.band_probability(lo, hi) / ((stop - start) * top) if count else 1.0
        phi = np.empty(count)
        filled = 0
        while filled < count:
            size = int((count - filled) / accept) + 16
            tries = rng.uniform(start, stop, size)
            kept = tries[rng.uniform(0.0, top, size) < self._density(tries)][: count - filled]
            phi[filled:filled + len(kept)] = kept
            filled += len(kept)
        return np.cos(2.0 * phi)


def _window_margin(h: float) -> float:
    # the float support test can move the support's ends by a few 1e-16;
    # levels lie in [-1, 1]
    return 1e-9 * h + 1e-12


class LevelSetSampler:
    """A reusable cloud of sphere samples for level-set averaging.

    Caches the sample points, the level values and the tangential gradient
    norm, so that averaging many polynomials over many levels costs one
    polynomial evaluation per polynomial.  The cloud is sorted by level once,
    so the kernel support of any level is one contiguous slice of it and a
    level costs O(window) rather than O(N).  Samples come from the first child
    of ``SeedSequence(seed)``, which makes results bitwise reproducible for a
    fixed seed.  The cloud's arrays are read-only, so a cloud can be shared.

    The cloud is built inside the ``(d, N)`` array it keeps (``points`` is
    its ``(N, d)`` view, so ``eval_many`` reads contiguous columns): drawn in
    blocks of ``_EVAL_BLOCK`` rows, sorted through one scratch row that then
    holds ``grad_norms``.  A block redraws its rows of norm below 1e-12
    before the next block is drawn, not after all N rows as one draw would:
    the clouds differ only then, with probability below 1e-19 per 100k-row
    cloud for d >= 2.
    """

    def __init__(self, model: "IsoparametricModel", seed, count: int, *,
                 level: Optional[float] = None):
        """With ``level``, draw only the samples that ``window(level)`` can
        read, the band ``|F - level| <= reach`` a little wider than the
        kernel support: their number is ``Binomial(count, p)`` for the band's
        probability ``p`` under the model's ``level_law``, their levels are
        drawn from that law restricted to the band, and uniform sphere points
        are carried onto those levels along their normal geodesics
        (``IsoparametricModel.transport``).  That is the law of the band of a
        full cloud of ``count`` samples, so ``count`` stays the full sample
        count and the level's estimates and SEs are those of the full cloud
        in law (not in bits), in O(window) time and memory."""
        self.h = model.h
        self.min_ess = MIN_ESS
        self.seed = seed
        self.count = count
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        rng = np.random.default_rng(root.spawn(1)[0])
        dim = model.ambient_dim
        if level is None:
            columns = np.empty((dim, count))
            for start in range(0, count, _EVAL_BLOCK):
                block = sample_sphere_many(min(_EVAL_BLOCK, count - start), dim, rng)
                columns[:, start:start + len(block)] = block.T
        else:
            # twice the window's margin: a superset of every sample it reads
            reach = model.h + 2.0 * _window_margin(model.h)
            lo, hi = level - reach, level + reach
            law = model.level_law
            targets = law.draw(rng.binomial(count, law.band_probability(lo, hi)), lo, hi, rng)
            columns = model.transport(sample_sphere_many(len(targets), dim, rng), targets).T.copy()
        scratch = model.F.eval_many(columns.T)  # the unsorted levels
        order = np.argsort(scratch)
        self.level_values = np.take(scratch, order)
        for row in columns:
            np.take(row, order, out=scratch, mode="clip")  # "clip" skips the buffer of "raise"
            row[:] = scratch
        del order
        np.subtract(1.0, np.square(self.level_values, out=scratch), out=scratch)
        np.multiply(model.g, np.sqrt(np.clip(scratch, 0.0, None, out=scratch), out=scratch), out=scratch)
        self.points, self.grad_norms = columns.T, scratch
        for array in (self.points, self.level_values, self.grad_norms):
            array.flags.writeable = False

    def window(self, level: float) -> slice:
        """The slice of the sorted cloud inside the kernel support of ``level``.

        A sample is in the support when ``|(F(x) - level) / h| < 1``.  That
        float test is monotone in ``F(x)``, so its samples are contiguous: the
        ``searchsorted`` slice of ``level - h`` to ``level + h``, widened by a
        margin that covers rounding, needs only its ends trimmed by the same
        test.
        """
        lv = self.level_values
        h = self.h
        margin = _window_margin(h)
        lo = int(np.searchsorted(lv, level - h - margin, side="left"))
        hi = int(np.searchsorted(lv, level + h + margin, side="right"))
        while lo < hi and not abs((lv[lo] - level) / h) < 1.0:
            lo += 1
        while hi > lo and not abs((lv[hi - 1] - level) / h) < 1.0:
            hi -= 1
        return slice(lo, hi)

    def weights(self, level: float, window: Optional[slice] = None) -> np.ndarray:
        """Coarea kernel weights at ``level``, bandwidth ``model.h``, of the
        samples in ``window(level)``; every other sample has weight 0.  A
        caller that holds the level's window already passes it in."""
        if window is None:
            window = self.window(level)
        u = (self.level_values[window] - level) / self.h
        return self.grad_norms[window] * (1.0 - u * u)  # Epanechnikov, O(h^2) bias

    def leaf_average_values(
        self, values: np.ndarray, levels: Sequence[float], se_rows: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted ratio estimates and delete-one jackknife standard errors.

        ``values`` is a ``(rows, N)`` array of sample values, in the order of
        ``points``.  The weights, their sum and the effective-sample-size
        guard (``min_ess``: ``MIN_ESS`` when the sampler was built) are
        computed once per level and shared by every row; each row is then
        estimated on its own, so its results do not depend on the other rows
        of the stack.  Returns the ``(rows, len(levels))`` estimates and the
        SEs of the first ``se_rows`` rows (of every row by default): the
        jackknife runs only for the rows whose SEs a caller reads, while
        every level still passes the weight-sum and ESS guards.

        Only the samples in the level's window are read.  Leaving out a
        sample of weight 0 leaves the ratio unchanged, so each of the
        ``N - k`` samples outside the window adds the same closed-form term
        to the jackknife sum.
        """
        min_ess = self.min_ess
        estimates = np.empty((len(values), len(levels)))
        ses = np.empty((len(values[:se_rows]), len(levels)))
        n = self.count
        for j, level in enumerate(levels):
            level = float(level)
            window = self.window(level)
            w = self.weights(level, window)
            sw = float(w.sum())
            if sw <= 0.0:
                raise EffectiveSampleTooSmall("no samples in the kernel window")
            ess = sw * sw / float((w * w).sum())
            if ess < min_ess:
                raise EffectiveSampleTooSmall(
                    f"effective sample size {ess:.1f} below minimum {min_ess}"
                )
            wf = values[:, window] * w
            swf = wf.sum(axis=1)
            estimates[:, j] = swf / sw
            if not len(ses):
                continue
            wf, swf, est = wf[:se_rows], swf[:se_rows], estimates[:se_rows, j]
            loo = (swf[:, None] - wf) / (sw - w)
            outside = n - len(w)
            mean = (loo.sum(axis=1) + outside * est) / n
            centered = loo - mean[:, None]
            spread = (centered * centered).sum(axis=1) + outside * (est - mean) ** 2
            ses[:, j] = np.sqrt((n - 1) / n * spread)
        return estimates, ses

    def leaf_average(self, f: Polynomial, level: float) -> Tuple[float, float]:
        """Estimate and SE of the leaf average of ``f`` at one level."""
        values = f.eval_many(self.points)[None, :]
        est, se = self.leaf_average_values(values, [level])
        return float(est[0, 0]), float(se[0, 0])


class IsoparametricModel:
    """Foliation of the sphere by level sets of a Cartan-Munzner polynomial.

    Admission runs the symbolic identity check.  The leaf average of ``f``
    at level ``t`` is estimated by coarea weighting:  ``sum w_i f(x_i) / sum w_i``
    with ``w_i = |grad_S F|(x_i) K_h(F(x_i) - t)`` over uniform sphere
    samples, where ``|grad_S F| = g sqrt(1 - F^2)`` on the unit sphere.

    The bandwidth ``h`` is ``BANDWIDTH`` and every level must reach an
    effective sample size of ``MIN_ESS``, for every model.

    ``sample_points`` and ``mc_samples`` size its fit points (at least twice
    a slice's monomials) and its sample clouds (``SAMPLE_COUNT`` when None);
    ``identity_tol`` bounds its identity residuals (``FIT_TOLERANCE`` when None).

    ``symmetry`` may name a finite-group or torus model whose action
    preserves ``F``; it is only used to construct same-leaf companions for
    separation testing and is validated against ``F`` at construction.
    """

    closed_form = exact = False
    leaf_label_names = ("level",)
    h = BANDWIDTH
    engine = "vandermonde_fit"
    tol_rank = FIT_TOL_RANK
    tolerance = FIT_TOLERANCE

    def __init__(self, F: Polynomial, g: int, *, symmetry=None, name: str = "",
                 sample_points: Optional[int] = None, mc_samples: Optional[int] = None,
                 identity_tol: Optional[float] = None):
        if F.ambient_dim < 2:  # no fit point meets |F| <= 1 - 2h on R^1 (F = +-1)
            raise ConfigError("an isoparametric model needs ambient_dim at least 2")
        self.F = F
        self.g = g
        validate_munzner(F, g)
        self.ambient_dim = F.ambient_dim
        self.mode = F.mode
        self.symmetry = symmetry
        self.sample_points = sample_points
        self.mc_samples = mc_samples
        self.identity_tol = FIT_TOLERANCE if identity_tol is None else identity_tol
        self.name = name or f"isoparametric(g={g}, dim={self.ambient_dim})"
        if symmetry is not None:
            self._check_symmetry(symmetry)

    def _check_symmetry(self, symmetry):
        if symmetry.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("symmetry model dimension does not match")
        if not symmetry.closed_form:
            raise ConfigError("symmetry must be a finite-group or torus model")
        # the symmetry preserves F when its average fixes F: exactly for an
        # exact symmetry, within 1e-8 for a float one; an exact finite group
        # preserves F when each of its generators does
        F = self.F.to_exact() if symmetry.exact else self.F.to_float()
        if symmetry.exact and isinstance(symmetry, FiniteGroupModel):
            preserved = all(compose_with_matrix(F, g) == F for g in symmetry.generators)
        elif symmetry.exact:
            preserved = symmetry.reynolds(F) == F
        else:
            preserved = (symmetry.reynolds(F) - F).max_abs_coeff() <= 1e-8
        if not preserved:
            raise ConfigError("configured symmetry does not preserve the level polynomial")

    # -- leaves ------------------------------------------------------------

    def _check_on_sphere(self, rows: np.ndarray, tol: float):
        """OffSphere for the first row whose norm (a sum of ``**`` squares,
        as in Python) is off 1 by more than ``tol``."""
        norms = np.sqrt(_column_sum(np.float_power(rows, 2)))
        off = np.abs(norms - 1.0) > tol
        if off.any():
            raise OffSphere(f"point norm {float(norms[off.argmax()])} is not 1 within {tol}")

    def level_of(self, p) -> float:
        return float(self.leaf_labels([tuple(p)])[0, 0])

    def leaf_labels(self, points) -> np.ndarray:
        """``(n, 1)``: the level of each point."""
        return self.F.eval_rows(_float_rows(points, self.ambient_dim))[:, None]

    def leaf_pairs(self, ps, qs) -> Tuple[np.ndarray, np.ndarray]:
        """``|F(p) - F(q)| < LEVEL_TOL`` and the proxy ``|F(p) - F(q)|`` of every
        pair ``(ps[i], qs[i])``, from one level difference per pair
        (``F.eval_rows``, the floats of ``F.eval``); the first point, in pair
        order, off the sphere by more than ``LEVEL_TOL`` raises OffSphere."""
        _check_width(self.ambient_dim, ps, qs)
        p, q = _float_rows(ps, self.ambient_dim), _float_rows(qs, self.ambient_dim)
        pairs = np.stack([p, q], axis=1).reshape(-1, self.ambient_dim)  # p0, q0, p1, q1, ...
        self._check_on_sphere(pairs, LEVEL_TOL)
        distance = np.abs(self.F.eval_rows(p) - self.F.eval_rows(q))
        return distance < LEVEL_TOL, distance

    def same_leaf(self, p, q) -> bool:
        """The level predicate of :meth:`leaf_pairs` for one pair."""
        return bool(self.leaf_pairs([tuple(p)], [tuple(q)])[0][0])

    def leaf_mates(self, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The symmetry's ``leaf_mates`` of each row of a float array;
        ConfigError when no symmetry is configured."""
        if self.symmetry is None:
            raise ConfigError(f"{self.name} has no symmetry configured to draw leaf mates")
        return self.symmetry.leaf_mates(points, rng)

    # -- level law and normal geodesics -------------------------------------

    @cached_property
    def level_law(self) -> LevelLaw:
        """The law of ``F`` at a uniform sphere point, solved once."""
        return LevelLaw.of(self.F, self.g)

    def transport(self, points: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Move each unit row of ``points`` along its normal geodesic onto
        the level in the same row of ``levels`` (Cecil-Ryan, *Geometry of
        Hypersurfaces*, ch. 3).  ``F = cos(g theta)`` there, with ``theta``
        the distance from the focal manifold ``F = 1``, and parallel leaves
        have constant principal curvatures, so the move carries the uniform
        law of one leaf onto the uniform law of the other.

        With ``nu`` the unit vector of ``grad F - g F(p) p`` and ``theta(p) =
        atan2(|grad F - g F(p) p|, g F(p)) / g`` (``arccos F(p) / g``, without
        its loss of digits next to a focal level), the step is ``s = theta(p)
        - arccos(t) / g`` and the result ``cos(s) p + sin(s) nu``.  A row on
        a focal manifold has no normal direction and comes back non-finite.
        """
        points = np.asarray(points, dtype=float)
        normal = np.empty_like(points)
        for i, part in enumerate(self.F.gradient()):
            normal[:, i] = part.eval_many(points)
        radial = np.einsum("ij,ij->i", normal, points)  # g F(p), by Euler
        normal -= radial[:, None] * points
        # the subtraction leaves rounding along p; a second pass removes it
        normal -= np.einsum("ij,ij->i", normal, points)[:, None] * points
        size = _row_norms(normal)
        step = (np.arctan2(size, radial) - np.arccos(np.clip(levels, -1.0, 1.0))) / self.g
        with np.errstate(divide="ignore", invalid="ignore"):
            normal *= (np.sin(step) / size)[:, None]
        normal += np.cos(step)[:, None] * points
        return normal

    # -- estimation --------------------------------------------------------

    def leaf_average_mc(
        self,
        f: Polynomial,
        p,
        rng_seed: int,
        *,
        n: int = SAMPLE_COUNT,
    ) -> Tuple[float, float]:
        """Monte Carlo leaf average of ``f`` through ``p`` with jackknife SE.

        The kernel estimate at the level of ``p`` over ``n`` uniform sphere
        samples (a positive int, else ``ConfigError``), of which only the
        level's band is drawn (``LevelSetSampler`` with ``level``):
        reproducible for a fixed seed, and equal in law, not in bits, to the
        estimate on a full cloud.  Uses the bandwidth ``h`` of the model and
        refuses points within it of the focal levels ``F = +-1``.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigError(f"n must be a positive int, got {n!r}")
        if f.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("polynomial dimension does not match model")
        rows = _float_rows([tuple(p)], self.ambient_dim)
        self._check_on_sphere(rows, 1e-8)
        level = float(self.F.eval_rows(rows)[0])
        if abs(level) >= 1.0 - self.h:
            raise NearSingularLeaf(
                f"level {level:.6f} within bandwidth {self.h} of a focal level"
            )
        sampler = LevelSetSampler(self, rng_seed, n, level=level)
        return sampler.leaf_average(f, level)

    def fit_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform sphere points avoiding ``|F| > 1 - 2h`` (near-focal)."""
        out = []
        need = count
        while need > 0:
            batch = sample_sphere_many(max(4 * need, 32), self.ambient_dim, rng)
            levels = self.F.eval_many(batch)
            keep = batch[np.abs(levels) <= 1.0 - 2.0 * self.h]
            if len(keep) > 0:
                out.append(keep[:need])
                need -= len(out[-1])
        return np.concatenate(out, axis=0)
