"""Concrete foliation models of round spheres and their dilation cones.

Three families are implemented, each with the same batch protocol: ``mode``
(the scalar mode of its averages), ``closed_form`` (True when ``reynolds``
gives the leaf average in closed form, False when it must be estimated),
``leaf_pairs(ps, qs, tol)`` (the same-leaf verdict of every pair, and a cheap
proxy for the distance between its two leaves), ``leaf_mates(points, rng)``
(a random point on the leaf of every point of an exact :class:`PointBatch` or
a float array), and ``leaf_label_names`` with ``leaf_labels`` (leaf-invariant
values for exported point tables).  Each batch method refuses points of the
wrong width with :class:`DimensionMismatch`, read off their shapes.

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
  samples.

Group and torus leaf averages are closed-form and exact in rational mode:
each degree part of ``f`` is projected sphere-orthogonally onto the basic
slice that ``invariant_rows`` span (:func:`leafavg.basic_ring.basic_projection`);
a float group averages the pullbacks ``f(g x)`` over its elements.
The isoparametric estimator is seeded and bitwise reproducible for a fixed
seed.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
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
from .exactlinalg import integer_left_kernel
from .polynomials import (
    EXACT,
    FLOAT,
    Polynomial,
    format_polynomial,
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
# default level-predicate tolerance of ``IsoparametricModel.same_leaf``
LEVEL_TOL = 1e-6
# most float coordinates of group orbit images built at once
_ORBIT_CHUNK = 1 << 13


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


def sample_sphere(ambient_dim: int, seed: int) -> np.ndarray:
    """One uniform sphere point, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    return sample_sphere_many(1, ambient_dim, rng)[0]


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
        rows, dens = [], []
        for p in points:
            if not all(isinstance(x, (int, Fraction)) for x in p):
                return None
            ratios = [x.as_integer_ratio() for x in p]
            dens.append(math.lcm(*(den for _, den in ratios)))
            rows.append([num * (dens[-1] // den) for num, den in ratios])
        return cls(np.array(rows, dtype=object), np.array(dens, dtype=object))

    def __len__(self) -> int:
        return len(self.dens)

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
        if mode == EXACT:
            rows.append(tuple(Fraction(x) for x in row))
        else:
            rows.append(tuple(float(x) for x in row))
    if len(rows) != ambient_dim:
        raise DimensionMismatch(f"matrix has {len(rows)} rows, expected {ambient_dim}")
    return tuple(rows)


def _infer_mode(matrices) -> str:
    for matrix in matrices:
        for row in matrix:
            for x in row:
                if isinstance(x, float):
                    return FLOAT
    return EXACT


def _zero(mode: str):
    return Fraction(0) if mode == EXACT else 0.0


def _identity(ambient_dim: int, mode: str):
    one = Fraction(1) if mode == EXACT else 1.0
    zero = _zero(mode)
    return tuple(
        tuple(one if i == j else zero for j in range(ambient_dim))
        for i in range(ambient_dim)
    )


def _mat_mul(a, b, zero):
    """``a b``; the zero entries of ``a`` are skipped and ``zero`` (``Fraction(0)``
    or ``0.0``) starts every sum, so each entry has the type of the scalars."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x), zero) for col in bt) for row in a
    )


def _integer_matrix(matrix) -> Tuple[tuple, int]:
    """``(rows, den)``: integer rows with ``matrix = rows / den`` in lowest terms."""
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in matrix), den


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _mat_close(a, b, tol: float) -> bool:
    return all(
        abs(float(x) - float(y)) <= tol for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _is_orthogonal(m, mode: str, tol: float) -> bool:
    n = len(m)
    prod = _mat_mul(tuple(zip(*m)), m, _zero(mode))
    ident = _identity(n, mode)
    if mode == EXACT:
        return prod == ident
    return _mat_close(prod, ident, tol)


def compose_with_matrix(f: Polynomial, matrix) -> Polynomial:
    """The pullback ``x -> f(M x)`` for a square matrix over f's scalars."""
    dim = f.ambient_dim
    rows = [
        Polynomial(dim, {tuple(1 if k == j else 0 for k in range(dim)): c
                         for j, c in enumerate(row) if c != 0}, f.mode)
        for row in matrix
    ]
    powers: Dict[Tuple[int, int], Polynomial] = {}

    def power(i: int, e: int) -> Polynomial:
        key = (i, e)
        got = powers.get(key)
        if got is None:
            got = rows[i] ** e
            powers[key] = got
        return got

    out = Polynomial.zero(dim, f.mode)
    for expo, coeff in f.terms.items():
        term = Polynomial.constant(dim, coeff, f.mode)
        for i, e in enumerate(expo):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


# -- finite matrix groups ----------------------------------------------------


def _signed_permutation(matrix):
    """``(perm, signs)`` with ``matrix[i][perm[i]] = signs[i]`` in {1, -1} and
    every other entry zero, or None for any other matrix."""
    perm = []
    signs = []
    for row in matrix:
        nz = [(j, c) for j, c in enumerate(row) if c != 0]
        if len(nz) != 1 or nz[0][1] not in (1, -1):
            return None
        perm.append(nz[0][0])
        signs.append(int(nz[0][1]))
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm), tuple(signs)


class _SignedTable(NamedTuple):
    """A finite group's signed-permutation elements, and the rest."""

    perms: np.ndarray  # (n, d) ints: row i of element k is nonzero in column perms[k, i]
    signs: np.ndarray  # (n, d) ints: that entry, 1 or -1
    pullbacks: list  # per element: (exponent map e -> e', bit mask of its negative rows)
    others: tuple  # the elements that are not signed permutations
    # with others in exact mode: every element k as integers[0][k] / integers[1][k]
    integers: Optional[Tuple[np.ndarray, np.ndarray]]


class FiniteGroupModel:
    """Orbit foliation of a finite group of orthogonal matrices.

    Leaves are the (finite) orbits; the leaf average is the group average
    ``(1/|G|) sum_g f(g x)``: on an exact group the projection onto the
    invariants that ``invariant_rows`` span, on a float group the mean of the
    pullbacks by :func:`compose_with_matrix`.

    Most desk-scale groups consist of signed permutations: an exact
    orthogonal matrix with one nonzero entry per row has entries +-1, so
    ``(g x)_i = s_i x_{perm_i}``.  An exact-mode model builds, once and on
    first use, a table of its elements that are signed permutations: an
    index array of the permutations and an int array of their signs, one
    row per element, read off the ``(perm, signs)`` tuples the closure ran
    on when every generator is one.  ``invariant_rows`` reads the signed
    orbit sum of a monomial off it as permuted exponent vectors and signs,
    with no polynomial per element.
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

    def __init__(self, ambient_dim: int, elements, generators, mode: str, name: str = "",
                 signed=None):
        self.ambient_dim = ambient_dim
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.mode = mode
        self.name = name or f"finite_group(dim={ambient_dim}, order={len(self.elements)})"
        self._table = None
        # (perm, signs) of every element when the closure ran on them
        self._signed = signed

    @property
    def order(self) -> int:
        return len(self.elements)

    def describe(self) -> str:
        return self.name

    def _signed_table(self) -> _SignedTable:
        if self._table is None:
            found = self._signed or [
                _signed_permutation(g) if self.mode == EXACT else None for g in self.elements
            ]
            pairs = [pair for pair in found if pair is not None]
            shape = (len(pairs), self.ambient_dim)
            perms = np.array([perm for perm, _ in pairs], dtype=np.intp).reshape(shape)
            signs = np.array([sign for _, sign in pairs], dtype=np.int64).reshape(shape)
            # x^e pulls back to sign * x^e' with e'[perm_i] = e_i, so e' reads
            # e through the inverse permutation
            pullbacks = [
                (itemgetter(*inverse) if len(inverse) > 1 else tuple,
                 sum(1 << i for i, s in enumerate(sign) if s < 0))
                for inverse, (_, sign) in zip(np.argsort(perms, axis=1).tolist(), pairs)
            ]
            others = tuple(g for g, pair in zip(self.elements, found) if pair is None)
            integers = None
            if others and self.mode == EXACT:
                integers = tuple(np.array(part, dtype=object)
                                 for part in zip(*map(_integer_matrix, self.elements)))
            self._table = _SignedTable(perms, signs, pullbacks, others, integers)
        return self._table

    def _signed_orbit_sum(self, expo: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
        """``sum_g (x^expo)(g x)`` over the signed permutations as integer counts
        per monomial, with every image of ``expo`` a key (also a zero count)."""
        odd = sum(1 << i for i, e in enumerate(expo) if e & 1)
        counts: Dict[Tuple[int, ...], int] = {}
        for image, negated in self._signed_table().pullbacks:
            key = image(expo)
            # the sign is the product of s_i over the odd exponents e_i
            counts[key] = counts.get(key, 0) + (-1 if (odd & negated).bit_count() & 1 else 1)
        return counts

    def invariant_rows(self, monomials: Sequence[Tuple[int, ...]]) -> List[dict]:
        """Rows (maps from monomial to coefficient) spanning the invariants
        in the span of ``monomials``, all of one degree.  An exact group keeps
        the combinations ``v`` of its signed orbit sums with ``v(g x) = v``
        for each generator ``g`` that is not a signed permutation (an integer
        left kernel over one denominator); a float group averages monomials."""
        if self.mode != EXACT:
            return [self.reynolds(Polynomial.monomial(self.ambient_dim, e, 1, self.mode)).terms
                    for e in monomials]
        rows, seen = [], set()
        for expo in monomials:
            if expo not in seen:
                rows.append(self._signed_orbit_sum(expo))
                seen.update(rows[-1])
        if self._signed_table().others:  # so some generator is not a signed permutation
            gens = [g for g in self.generators if _signed_permutation(g) is None]
            moved = [[x for g in gens for x in map((compose_with_matrix(p, g) - p).coefficient,
                                                   monomials)]
                     for p in (Polynomial(self.ambient_dim, row) for row in rows)]
            den = math.lcm(*(x.denominator for row in moved for x in row))
            kernel = integer_left_kernel([[int(x * den) for x in row] for row in moved])
            rows = [{e: sum(c * row.get(e, 0) for c, row in zip(v, rows)) for e in monomials}
                    for v in kernel]
        return rows

    def reynolds(self, f: Polynomial) -> Polynomial:
        """Group average of ``f``: on an exact group the sphere-orthogonal
        projection of each degree part onto the basic slice that
        ``invariant_rows`` span (:func:`~leafavg.basic_ring.basic_projection`),
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

    def same_leaf(self, p, q, tol: float) -> bool:
        return bool(self.leaf_pairs([tuple(p)], [tuple(q)], tol)[0][0])

    def leaf_pairs(self, ps, qs, tol: float) -> Tuple[np.ndarray, np.ndarray]:
        """For every pair ``(ps[i], qs[i])``: whether some element carries
        ``ps[i]`` to within ``tol`` of ``qs[i]``, and the distance from
        ``qs[i]`` to the orbit of ``ps[i]``, read off one nearest orbit
        distance per pair; the orbits are built ``_ORBIT_CHUNK`` float
        coordinates at a time.  At ``tol`` 0 the verdict compares images
        with ``qs[i]`` exactly: cross-multiplied when both points are exact
        and the group is, as floats otherwise."""
        _check_width(self.ambient_dim, ps, qs)
        step = max(1, _ORBIT_CHUNK // (self.order * self.ambient_dim))
        nearest, same = [np.empty(0)], [np.empty(0, dtype=bool)]
        for i in range(0, len(ps), step):
            p, q = ps[i:i + step], qs[i:i + step]
            nearest.append(self._orbit_sq_distances_many(p, q).min(axis=1))
            if not tol:
                same.append(self._on_orbit(p, q))
        nearest = np.concatenate(nearest)
        return nearest < tol * tol if tol else np.concatenate(same), np.sqrt(nearest)

    def orbit(self, p) -> List[tuple]:
        p = tuple(p)
        return [_mat_vec(g, p) for g in self.elements]

    def _float_orbits(self, ps) -> np.ndarray:
        """``(n, order, d)``: the float image of ``ps[i]`` under each element.
        Exact images come from integer matrices when the signed table is
        short, and the table's rows are one gather of the floats."""
        table = self._signed_table()
        batch = PointBatch.of(ps) if table.integers is not None else None
        if batch is not None:
            images = np.matmul(table.integers[0], batch.nums[:, None, :, None])[..., 0]
            return PointBatch(images, batch.dens[:, None] * table.integers[1]).floats()
        points = _as_floats(ps)
        if table.others:
            n, k = len(points), self.order
            images = self._float_images(np.repeat(points, k, axis=0), np.tile(np.arange(k), n))
            return images.reshape(n, k, self.ambient_dim)
        return points[:, table.perms] * table.signs

    def _orbit_sq_distances_many(self, ps, qs) -> np.ndarray:
        """``(n, order)``: squared float distance from ``qs[i]`` to each point of
        the orbit of ``ps[i]``, summed left to right over the coordinates and
        squared by ``np.float_power`` (the C library's ``pow``, as Python's
        ``**``): the floats of a Python sum over the exact orbit."""
        return _column_sum(np.float_power(self._float_orbits(ps) - _as_floats(qs)[:, None, :], 2))

    def _on_orbit(self, ps, qs) -> np.ndarray:
        """``(n,)``: whether ``qs[i]`` is an image of ``ps[i]``, comparing
        ``g p / den`` with ``q / den_q`` cross-multiplied when both points are
        exact and the group is, and the float images with ``==`` otherwise."""
        p, q = PointBatch.of(ps), PointBatch.of(qs)
        if p is None or q is None or self.mode != EXACT:
            return (self._float_orbits(ps) == _as_floats(qs)[:, None, :]).all(axis=2).any(axis=1)
        n, k = len(p), self.order
        rows = np.repeat(np.arange(n), k)
        images, q = self._images(p[rows], np.tile(np.arange(k), n)), q[rows]
        equal = (images.nums * q.dens[:, None] == q.nums * images.dens[:, None]).astype(bool)
        return equal.all(axis=1).reshape(n, k).any(axis=1)

    def leaf_labels(self, points) -> np.ndarray:
        return np.zeros((len(points), 0))

    def _images(self, batch: PointBatch, ks) -> PointBatch:
        """Element ``ks[i]`` applied to point ``i`` of an exact batch: a gather
        through the signed table, or else integer matrix products."""
        table = self._signed_table()
        if table.integers is not None:
            matrices, dens = table.integers
            return PointBatch(np.matmul(matrices[ks], batch.nums[..., None])[..., 0],
                              batch.dens * dens[ks])
        rows = np.arange(len(batch))[:, None]
        return PointBatch(batch.nums[rows, table.perms[ks]] * table.signs[ks], batch.dens)

    def _float_images(self, points: np.ndarray, ks) -> np.ndarray:
        """Element ``ks[i]`` applied to row ``i`` of a float array, with the
        floats of ``_mat_vec``: a gather through the signed table, or else
        products summed left to right."""
        table = self._signed_table()
        if table.others:
            d = self.ambient_dim
            matrices = np.array([self.elements[k] for k in ks], dtype=float).reshape(-1, d, d)
            return _column_sum(matrices * points[:, None, :])
        rows = np.arange(len(points))[:, None]
        return points[rows, table.perms[ks]] * table.signs[ks]

    def leaf_mates(self, batch, rng: np.random.Generator):
        """``g p`` for a uniformly drawn element ``g`` (row ``k`` of the signed
        table is element ``k``) and each point ``p`` of an exact batch (exact
        on an exact group) or a float array: one draw of all element indices
        gives the draws of one call per point."""
        _check_width(self.ambient_dim, batch)
        ks = rng.integers(self.order, size=len(batch))
        if isinstance(batch, PointBatch) and self.mode == EXACT:
            return self._images(batch, ks)
        return self._float_images(_as_floats(batch).reshape(-1, self.ambient_dim), ks)

    def random_leaf_mate(self, p, rng: np.random.Generator):
        return _mate_of(self, p, rng)


def group_closure(
    generators,
    max_group_size: int = 512,
    *,
    mode: Optional[str] = None,
    name: str = "",
) -> FiniteGroupModel:
    """Close a generator list under products into a :class:`FiniteGroupModel`.

    Breadth-first and deterministic, on ``(perm, signs)`` tuples when every
    exact generator is a signed permutation.  Raises :class:`NonOrthogonalGenerator`
    for a bad generator and :class:`GroupTooLarge` when the closure exceeds
    ``max_group_size`` (the signature of an infinite or huge group).
    """
    generators = list(generators)
    if not generators:
        raise ConfigError("at least one generator is required")
    if max_group_size < 1:
        raise ConfigError("max_group_size must be positive")
    ambient_dim = len(generators[0])
    if mode is None:
        mode = _infer_mode(generators)
    gens = [_as_matrix(g, ambient_dim, mode) for g in generators]
    for g in gens:
        if not _is_orthogonal(g, mode, MATRIX_TOL):
            raise NonOrthogonalGenerator(f"generator is not orthogonal within {MATRIX_TOL}")

    signed = [_signed_permutation(g) for g in gens] if mode == EXACT else [None]
    if None not in signed:
        # (perm, signs) tuples: row i of ``a g`` is nonzero in column
        # perm_g[perm_a[i]], with sign signs_a[i] * signs_g[perm_a[i]]
        start, factors = (tuple(range(ambient_dim)), (1,) * ambient_dim), signed
        entries = {1: Fraction(1), -1: Fraction(-1), 0: Fraction(0)}

        def multiply(a, g):
            (perm, signs), (factor_perm, factor_signs) = a, g
            return (tuple(factor_perm[j] for j in perm),
                    tuple(s * factor_signs[j] for s, j in zip(signs, perm)))

        def element(key):
            return tuple(tuple(entries[s if j == p else 0] for j in range(ambient_dim))
                         for p, s in zip(*key))
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
    return FiniteGroupModel(ambient_dim, map(element, keys) if element else keys, gens, mode,
                            name=name, signed=keys if None not in signed else None)


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

    closed_form = True

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

    def describe(self) -> str:
        return self.name

    # -- averaging ---------------------------------------------------------

    def _balanced(self, imbalance: Sequence[int]) -> bool:
        return all(
            sum(self.weight_matrix[j][t] * imbalance[j] for j in range(self.n_planes)) == 0
            for t in range(self.torus_rank)
        )

    def reynolds(self, f: Polynomial) -> Polynomial:
        """Torus average: the sphere-orthogonal projection of each degree
        part of ``f`` onto the basic slice that ``invariant_rows`` span
        (:func:`~leafavg.basic_ring.basic_projection`)."""
        if f.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("polynomial dimension does not match torus model")
        from .basic_ring import basic_projection  # basic_ring imports this module
        return basic_projection(self, f)

    def invariant_rows(self, monomials: Sequence[Tuple[int, ...]]) -> List[dict]:
        """Integer rows, as maps from monomial to coefficient, spanning the
        image of ``reynolds`` on the span of ``monomials`` (all of one
        degree): the real and imaginary parts of each balanced
        ``z^a zbar^b w^c`` of the degree, one of each conjugate pair, read
        off the monomial with exponents ``(a_1, b_1, ..., a_m, b_m, c)``."""
        m2 = 2 * self.n_planes
        rows = []
        for expo in monomials:
            ab = tuple(zip(expo[0:m2:2], expo[1:m2:2]))
            conjugate = tuple((b, a) for a, b in ab)
            if conjugate < ab or not self._balanced([a - b for a, b in ab]):
                continue
            parts = _realify(ab)
            rows.append({prefix + expo[m2:]: re for prefix, re, _ in parts})
            if conjugate != ab:  # z^a zbar^a is real
                rows.append({prefix + expo[m2:]: im for prefix, _, im in parts})
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

    def _phase_gaps(self, phases, radii_p, radii_q, floor: float):
        """Phase-lattice test of the planes where both radii exceed ``floor``,
        for the ``(n, n_planes)`` phase differences ``arg q - arg p`` of
        ``n`` pairs.

        Yields ``(rows, gaps)`` for the pairs ``rows`` that share one set of
        such planes, with ``(gap, weight)`` in ``gaps`` for each vector ``v``
        of the saturated integer kernel of those planes' weight rows: ``gap``
        is each pair's phase combination ``v . (arg q - arg p)`` wrapped to
        ``[0, pi]`` by ``math.remainder``, zero on a common orbit closure, and
        ``weight = max(1, |v|_1)``.
        """
        active = (radii_p > floor) & (radii_q > floor)
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

    def leaf_pairs(self, ps, qs, tol: float) -> Tuple[np.ndarray, np.ndarray]:
        """The same-leaf verdict and the distance proxy of every pair
        ``(ps[i], qs[i])``, from arrays of floats, radii and phases with the
        floats of a loop over the pairs.  Same leaf: fixed coordinates and
        radii within ``tol``, and each kernel vector's phase gap within
        ``tol * max(1, |v|_1)``.  Proxy: the larger of the radial distance
        and the worst weighted phase gap."""
        m = 2 * self.n_planes
        _check_width(self.ambient_dim, ps, qs)
        p, q = _float_rows(ps, self.ambient_dim), _float_rows(qs, self.ambient_dim)
        radii_p, radii_q = self._planes(p, math.hypot), self._planes(q, math.hypot)
        phases = self._planes(q, math.atan2, 1) - self._planes(p, math.atan2, 1)
        same = ~(np.abs(np.hstack([p[:, m:] - q[:, m:], radii_p - radii_q])) > tol).any(axis=1)
        for rows, gaps in self._phase_gaps(phases, radii_p, radii_q, tol):
            for gap, weight in gaps:
                same[rows] &= gap <= tol * weight
        radial = np.sqrt(_column_sum(np.float_power(radii_p - radii_q, 2))
                         + _column_sum(np.float_power(p[:, m:] - q[:, m:], 2)))
        phase = np.zeros(len(p))
        for rows, gaps in self._phase_gaps(phases, radii_p, radii_q, 1e-9):
            if gaps:  # Python's max: the first gap, then any larger one
                phase[rows] = reduce(lambda a, b: np.where(b > a, b, a),
                                     [gap / weight for gap, weight in gaps])
        return same, np.where(phase > radial, phase, radial)

    def same_leaf(self, p, q, tol: float) -> bool:
        return bool(self.leaf_pairs([tuple(p)], [tuple(q)], tol)[0][0])

    def leaf_mates(self, batch, rng: np.random.Generator):
        """A point on the leaf of each point of an exact batch (an exact
        rational rotation) or a float array (a float rotation): one draw of
        all rotations gives the draws of one call per point.  Exactly,
        parameter ``t`` turns by ``cos + i sin = (b + i a)^2
        / (a^2 + b^2)`` in lowest terms, plane ``j`` by the product of their
        ``w_jt``-th powers in Gaussian integers, and every coordinate goes
        over ``prod_t den_t^(max_j |w_jt|)``.  In floats, plane ``j`` turns by
        ``sum_t w_jt theta_t``, summed left to right, through ``math.cos`` and
        ``math.sin``."""
        _check_width(self.ambient_dim, batch)
        if not isinstance(batch, PointBatch):
            theta = rng.uniform(0.0, _TWO_PI, size=(len(batch), self.torus_rank))
            angles = _column_sum(theta[:, None, :] * np.array(self.weight_matrix, dtype=float))
            cos, sin = (np.vectorize(f, otypes=[float])(angles) for f in (math.cos, math.sin))
            xs, ys = slice(0, 2 * self.n_planes, 2), slice(1, 2 * self.n_planes, 2)
            x, y, out = batch[:, xs], batch[:, ys], batch.copy()
            out[:, xs], out[:, ys] = cos * x - sin * y, sin * x + cos * y
            return out
        draws = rng.integers([-12, 1], [13, 13], size=(len(batch), self.torus_rank, 2))
        a, b = draws.astype(object).transpose(2, 1, 0)
        cos, sin, den = b * b - a * a, 2 * a * b, a * a + b * b
        g = np.gcd(np.gcd(cos, sin), den)
        cos, sin, den = cos // g, sin // g, den // g
        tops = [max(abs(row[t]) for row in self.weight_matrix) for t in range(self.torus_rank)]
        common = np.prod([d ** top for d, top in zip(den, tops)], axis=0)
        out = []
        for j, weights in enumerate(self.weight_matrix):
            c, s, scale = 1, 0, 1
            for t, w in enumerate(weights):
                st = sin[t] if w > 0 else -sin[t]
                for _ in range(abs(w)):
                    c, s = c * cos[t] - s * st, c * st + s * cos[t]
                scale = scale * den[t] ** (tops[t] - abs(w))
            x, y = batch.nums[:, 2 * j], batch.nums[:, 2 * j + 1]
            out += [(c * x - s * y) * scale, (s * x + c * y) * scale]
        out += [batch.nums[:, i] * common for i in range(2 * self.n_planes, self.ambient_dim)]
        return PointBatch(np.stack(out, axis=1), batch.dens * common)

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
        first, second = sphere_mean(F), sphere_mean(F * F)
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

    A sampler keeps the model's ``h`` and ``min_ess`` and only a weak
    reference to the model itself (``model``), so that a model may keep its
    own samplers without a reference cycle.
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
        self._model = weakref.ref(model)
        self.h = model.h
        self.min_ess = model.min_ess
        self.seed = seed
        self.count = count
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        rng = np.random.default_rng(root.spawn(1)[0])
        if level is None:
            points = sample_sphere_many(count, model.ambient_dim, rng)
        else:
            # twice the window's margin: a superset of every sample it reads
            reach = model.h + 2.0 * _window_margin(model.h)
            lo, hi = level - reach, level + reach
            law = model.level_law
            targets = law.draw(rng.binomial(count, law.band_probability(lo, hi)), lo, hi, rng)
            points = model.transport(sample_sphere_many(len(targets), model.ambient_dim, rng), targets)
        levels = model.F.eval_many(points)
        order = np.argsort(levels)
        self.level_values = np.take(levels, order)
        del levels
        # the sorted cloud is kept column-major (``points`` is an (N, d) view
        # of a (d, N) array) so that eval_many reads contiguous columns; np.take
        # gathers each coordinate straight into its row (mode "clip" skips the
        # buffer of "raise"), so no more than two copies of the cloud coexist
        columns = np.empty((model.ambient_dim, len(order)))
        for i, column in enumerate(columns):
            np.take(points[:, i], order, out=column, mode="clip")
        del points
        self.points = columns.T
        self.grad_norms = model.g * np.sqrt(np.clip(1.0 - self.level_values ** 2, 0.0, None))
        for array in (self.points, self.level_values, self.grad_norms):
            array.flags.writeable = False

    @property
    def model(self) -> Optional["IsoparametricModel"]:
        """The model the cloud was drawn for, or None once it is freed."""
        return self._model()

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
        guard (the model's ``min_ess``) are computed once per level and
        shared by every row; each row is then estimated on its own, so its
        results do not depend on the other rows of the stack.  Returns the
        ``(rows, len(levels))`` estimates and the SEs of the first
        ``se_rows`` rows (of every row by default): the jackknife runs only
        for the rows whose SEs a caller reads, while every level still
        passes the weight-sum and ESS guards.

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

    Admission runs the symbolic identity check; the resulting Laplacian
    scale ``c`` is stored on the model.  The leaf average of ``f`` at level
    ``t`` is estimated by coarea weighting:  ``sum w_i f(x_i) / sum w_i``
    with ``w_i = |grad_S F|(x_i) K_h(F(x_i) - t)`` over uniform sphere
    samples, where ``|grad_S F| = g sqrt(1 - F^2)`` on the unit sphere.

    ``symmetry`` may name a finite-group or torus model whose action
    preserves ``F``; it is only used to construct same-leaf companions for
    separation testing and is validated against ``F`` at construction.
    """

    closed_form = False
    leaf_label_names = ("level",)

    def __init__(
        self,
        F: Polynomial,
        g: int,
        *,
        h: float = 0.05,
        sample_count: int = 100_000,
        min_ess: float = 100.0,
        symmetry=None,
        name: str = "",
    ):
        # no fit point meets |F| <= 1 - 2h when h >= 1/2, nor on R^1 (F = +-1)
        if not 0.0 < h < 0.5:
            raise ConfigError(f"bandwidth h must lie in (0, 1/2), got {h!r}")
        if F.ambient_dim < 2:
            raise ConfigError("an isoparametric model needs ambient_dim at least 2")
        if not min_ess >= 1:  # an ESS is never below 1; NaN fails too
            raise ConfigError(f"min_ess must be at least 1, got {min_ess!r}")
        self.F = F
        self.g = g
        self.c = validate_munzner(F, g)
        self.ambient_dim = F.ambient_dim
        self.h = h
        self.sample_count = sample_count
        self.min_ess = min_ess
        self.mode = F.mode
        self.symmetry = symmetry
        self.name = name or f"isoparametric(g={g}, dim={self.ambient_dim})"
        if symmetry is not None:
            self._check_symmetry(symmetry)

    def describe(self) -> str:
        return self.name

    def _check_symmetry(self, symmetry):
        if symmetry.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("symmetry model dimension does not match")
        if not symmetry.closed_form:
            raise ConfigError("symmetry must be a finite-group or torus model")
        # the symmetry preserves F when its average fixes F: exactly for an
        # exact symmetry, within 1e-8 for a float one
        F = self.F.to_exact() if symmetry.mode == EXACT else self.F.to_float()
        averaged = symmetry.reynolds(F)
        if symmetry.mode == EXACT:
            preserved = averaged == F
        else:
            preserved = (averaged - F).max_abs_coeff() <= 1e-8
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

    def leaf_pairs(self, ps, qs, tol: float) -> Tuple[np.ndarray, np.ndarray]:
        """``|F(p) - F(q)| < tol`` and the proxy ``|F(p) - F(q)|`` of every pair
        ``(ps[i], qs[i])``, from one level difference per pair (``F.eval_rows``,
        the floats of ``F.eval``); the first point, in pair order, off the
        sphere by more than ``max(tol, 1e-9)`` raises OffSphere."""
        _check_width(self.ambient_dim, ps, qs)
        p, q = _float_rows(ps, self.ambient_dim), _float_rows(qs, self.ambient_dim)
        pairs = np.stack([p, q], axis=1).reshape(-1, self.ambient_dim)  # p0, q0, p1, q1, ...
        self._check_on_sphere(pairs, max(tol, 1e-9))
        distance = np.abs(self.F.eval_rows(p) - self.F.eval_rows(q))
        return distance < tol, distance

    def same_leaf(self, p, q, tol: float = LEVEL_TOL) -> bool:
        """Level predicate ``|F(p) - F(q)| < tol`` for unit-sphere points."""
        return bool(self.leaf_pairs([tuple(p)], [tuple(q)], tol)[0][0])

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
        n: Optional[int] = None,
    ) -> Tuple[float, float]:
        """Monte Carlo leaf average of ``f`` through ``p`` with jackknife SE.

        The kernel estimate at the level of ``p`` over ``n`` uniform sphere
        samples (the model's ``sample_count`` by default; otherwise a
        positive int, else ``ConfigError``), of which only the level's band
        is drawn (``LevelSetSampler`` with ``level``): reproducible for a
        fixed seed, and equal in law, not in bits, to the estimate on a full
        cloud.  Uses the bandwidth ``h`` of the model and refuses points
        within it of the focal levels ``F = +-1``.
        """
        if n is None:
            n = self.sample_count
        elif isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
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
