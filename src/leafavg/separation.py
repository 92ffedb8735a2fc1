"""Separation certificates for the generator map.

Evaluating all generators at once gives a polynomial map into R^k that is
constant on leaves; on samples, two points should map to the same value
exactly when they lie on the same leaf.  ``separation_test`` collects
evidence for both directions: same-leaf pairs (point plus a leaf companion)
must have negligible image discrepancy, distinct-leaf pairs must stay
separated, and the certificate records the margin between the two regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, InsufficientDistinctPairs, NonFiniteCoefficient
from .models import PointBatch, _as_floats, _column_sum, _float_rows, _int_dtype, sample_sphere_many
from .polynomials import EXACT

_PROXY_BINS = (1e-3, 1e-2, 1e-1)
# a certificate passes when the margin ratio exceeds this
MARGIN_MIN = 10.0
# the denominator q of the random rational vectors k / q behind exact sphere points
SPHERE_DENOMINATOR = 16


class _IntegerGeneratorMap:
    """An exact generator set in integers, for evaluation at rational points.

    Generator ``f = sum (k_e / L) x^e`` of top degree ``D`` is kept as its
    denominator ``L`` and the terms ``(e, k_e, D - |e|)``, with ``e`` as its
    nonzero ``(index, exponent)`` pairs.  At ``x = a / c``, with ``c`` the
    point's denominator, ``f(x) = sum k_e a^e c^(D - |e|) / (L c^D)``: one
    integer quotient per generator, from integer power tables shared by the
    generators of one dtype.  A whole :class:`PointBatch` is evaluated at
    once, one array operation per power and per term factor.  ``values``
    gives each quotient as one correctly rounded integer division,
    ``float(f.eval(x))`` bit for bit.

    With ``m`` the batch's :meth:`~PointBatch.magnitude`, every partial sum
    of ``f``'s numerator is at most ``sum |k_e| m^D`` and its denominator at
    most ``L m^D``.  Each generator with ``max(sum |k_e|, L) m^D < 2^53``
    runs in int64: each intermediate is then an exact double, so numpy's
    ``total / den`` rounds the exact quotient once, as Python's int division
    does.  The others run in Python ints.
    """

    def __init__(self, generators):
        self.forms = []  # (L, D, terms, max(sum |k_e|, L)) per generator
        for f in generators:
            degree = max((sum(e) for e in f._nums), default=0)
            terms = tuple((tuple((i, e) for i, e in enumerate(expo) if e), k, degree - sum(expo))
                          for expo, k in f._nums.items())
            self.forms.append((f._den, degree, terms, max(sum(abs(k) for _, k, _ in terms), f._den)))

    def _quotients(self, batch: PointBatch) -> Tuple[list, list]:
        """``(totals, dens)``: per generator, int64 or object arrays over the
        batch whose quotient is the generator's value at each point."""
        m, (nums64, dens64) = batch.magnitude()
        # per dtype, the coordinate columns and then the dens: a generator's
        # int64 bound puts m below 2^53, so the magnitude's arrays are int64
        columns = {np.int64: [*nums64.T, dens64], object: [*batch.nums.T, batch.dens]}
        powers: Dict[tuple, list] = {}  # per (dtype, column): its powers from the 0th

        def power(dtype, i: int, e: int) -> np.ndarray:  # a loop: a recursive closure is a cycle
            table = powers.setdefault((dtype, i), [np.ones(len(batch), dtype=dtype)])
            while len(table) <= e:
                table.append(table[-1] * columns[dtype][i])
            return table[e]

        totals, dens = [], []
        for lcm, degree, terms, scale in self.forms:
            dtype = _int_dtype(scale * m ** degree, 2 ** 53)
            total = np.zeros(len(batch), dtype=dtype)
            for factors, k, cofactor in terms:
                term = k * power(dtype, -1, cofactor)
                for i, e in factors:
                    term = term * power(dtype, i, e)
                total = total + term
            totals.append(total)
            dens.append(lcm * power(dtype, -1, degree))
        return totals, dens

    def values(self, points) -> Optional[np.ndarray]:
        """``(n, k)`` generator values as floats (OverflowError past the float
        range); None unless every coordinate is an int or a ``Fraction``."""
        batch = PointBatch.of(points)
        if batch is None:
            return None
        totals, dens = self._quotients(batch)
        values = np.array([t / d for t, d in zip(totals, dens)], dtype=float)
        return values.reshape(len(totals), len(batch)).T


def _check_dimension(gens, dim: int) -> None:
    if any(dim != p.ambient_dim for p in gens.generators):
        raise DimensionMismatch("point dimension does not match generators")


def rho_eval(gens, point) -> tuple:
    """The generator map at one point, by ``Polynomial.eval``: exact at a
    rational point of an exact generator set."""
    _check_dimension(gens, len(point))
    return tuple(p.eval(point) for p in gens.generators)


def _rho_floats(gens, points, integer_map: Optional[_IntegerGeneratorMap]) -> np.ndarray:
    """``(n, k)``: the float of every generator value at every point; an exact
    batch in integers when ``integer_map`` is given, else the floats of the
    points through ``Polynomial.eval_rows``."""
    batch = PointBatch.of(points) if integer_map is not None else None
    if batch is None:
        rows = _float_rows(points, gens.ambient_dim)
        values = np.array([g.eval_rows(rows) for g in gens.generators])
        return values.reshape(len(gens.generators), len(rows)).T
    _check_dimension(gens, batch.nums.shape[1])
    return integer_map.values(batch)


@dataclass
class SeparationCertificate:
    """Sampled evidence that leaves coincide with fibers of the generator map."""

    model: str
    generator_count: int
    generator_provenance: dict
    num_same_pairs: int
    max_same_discrepancy: float
    num_distinct_pairs: int
    min_distinct_distance: float
    margin_ratio: float
    margin_by_proxy: Dict[str, float]
    failures: List[dict]
    tol_same: float
    seed: int
    notes: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        passed = not self.failures and self.margin_ratio > MARGIN_MIN
        return "pass" if passed else "fail"

    def to_dict(self) -> dict:
        margin = self.margin_ratio
        return {
            "model": self.model,
            "generator_count": self.generator_count,
            "generator_provenance": self.generator_provenance,
            "num_same_pairs": self.num_same_pairs,
            "max_same_discrepancy": self.max_same_discrepancy,
            "num_distinct_pairs": self.num_distinct_pairs,
            "min_distinct_distance": self.min_distinct_distance,
            "margin_ratio": "inf" if math.isinf(margin) else margin,
            "margin_by_proxy": dict(sorted(self.margin_by_proxy.items())),
            "failures": self.failures[:10],
            "num_failures": len(self.failures),
            "tol_same": self.tol_same,
            "margin_min": MARGIN_MIN,
            "seed": self.seed,
            "notes": self.notes,
            "verdict": self.verdict,
        }


def rational_sphere_batch(ambient_dim: int, count: int, rng: np.random.Generator) -> PointBatch:
    """Exact rational points on the unit sphere via stereographic projection.

    With ``u = k / q`` a random rational vector over ``q =
    SPHERE_DENOMINATOR``, the point ``(2u, |u|^2 - 1) / (|u|^2 + 1) =
    (2 q k, S - q^2) / (S + q^2)``, ``S = |k|^2``, has unit norm exactly, so
    generator invariance can be certified with zero floating error.  Each
    ``|k_i| <= 2q``, so no entry or partial sum exceeds ``S + q^2 <= (4d -
    3) q^2`` for ``d = ambient_dim``: the arithmetic runs in int64 when that
    is below ``2^63`` and in Python ints otherwise, and the batch holds
    Python ints.
    """
    q = SPHERE_DENOMINATOR
    dtype = _int_dtype((4 * ambient_dim - 3) * q * q)
    k = rng.integers(-2 * q, 2 * q + 1, size=(count, ambient_dim - 1)).astype(dtype, copy=False)
    s = (k * k).sum(axis=1)
    return PointBatch(np.column_stack([2 * q * k, s - q * q]).astype(object, copy=False),
                      (s + q * q).astype(object, copy=False))


def rational_sphere_points(ambient_dim: int, count: int, rng: np.random.Generator) -> List[tuple]:
    """:func:`rational_sphere_batch` as tuples of reduced ``Fraction``s."""
    return rational_sphere_batch(ambient_dim, count, rng).points()


def separation_test(
    model,
    gens,
    num_pairs: int,
    tol_same: float,
    rng_seed: int,
    *,
    adversarial_pairs: Optional[Sequence[Tuple[tuple, tuple]]] = None,
) -> SeparationCertificate:
    """Sample same-leaf and distinct-leaf pairs on the sphere and certify
    that the generator map separates them.

    Same-leaf companions come from a random group element, a random torus
    phase (exact rational rotations for exact points), or -- for
    isoparametric models -- the configured leaf-preserving symmetry;
    without one, same-leaf testing degenerates to the level predicate and
    is skipped with a note.  Distinct pairs are rejection-sampled through
    the model's own ``leaf_pairs``, within the tolerance the model reads
    (``models.CLOSED_FORM_LEAF_TOL`` on groups and tori, ``models.LEVEL_TOL``
    on level sets).  ``adversarial_pairs`` are extra candidate pairs checked
    alongside the sampled ones (collision witnesses live on measure-zero
    sets that random sampling cannot hit).

    Exact points come as one :class:`PointBatch` per draw and float points
    as one array per draw; each step after the mates runs once per batch
    with the values of a point-at-a-time loop.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")
    rng = np.random.default_rng(rng_seed)
    exact = model.exact and gens.mode == EXACT
    integer_map = _IntegerGeneratorMap(gens.generators) if exact else None
    draw = rational_sphere_batch if exact else (lambda d, n, g: sample_sphere_many(n, d, g))

    def rho_distances(ps, qs) -> List[float]:
        """``|rho(p) - rho(q)|`` per pair, as a Python sum of ``**`` squares."""
        try:
            diff = _rho_floats(gens, ps, integer_map) - _rho_floats(gens, qs, integer_map)
            with np.errstate(over="ignore", invalid="ignore"):
                squares = np.float_power(diff, 2)
            if (np.isinf(squares) & np.isfinite(diff)).any():
                raise OverflowError
        except OverflowError:  # an exact value, or a squared difference, past the float range
            raise NonFiniteCoefficient(
                "a generator value or distance is too large for a float") from None
        return np.sqrt(_column_sum(squares)).tolist()

    notes: List[str] = []
    failures: List[dict] = []

    def record_failures(kind, other, ps, qs, dists, bad):
        rows = (_as_floats(ps).tolist(), _as_floats(qs).tolist()) if bad else None
        failures.extend({"kind": kind, "point": rows[0][i], other: rows[1][i],
                         "rho_distance": dists[i]} for i in bad)

    # same-leaf side
    max_same = 0.0
    num_same = 0
    if model.closed_form or model.symmetry is not None:
        points = draw(model.ambient_dim, num_pairs, rng)
        mates = model.leaf_mates(points, rng)
        discs = rho_distances(points, mates)
        num_same = len(discs)
        max_same = max([max_same] + discs)
        record_failures("same_leaf_discrepancy", "mate", points, mates, discs,
                        [i for i, disc in enumerate(discs) if disc > tol_same])
    else:
        notes.append(
            "no leaf-transitive symmetry configured; same-leaf pairs skipped "
            "(same-leaf testing degenerates to the level predicate)"
        )

    # distinct-leaf side
    distances: List[float] = []
    proxies: List[float] = []

    def record_distinct(ps, qs, proxy):
        dists = rho_distances(ps, qs) if len(proxy) else []
        distances.extend(dists)
        proxies.extend(proxy.tolist())
        record_failures("distinct_leaf_collision", "other", ps, qs, dists,
                        [i for i, dist in enumerate(dists) if dist <= tol_same])

    if adversarial_pairs:
        ps, qs = [p for p, _ in adversarial_pairs], [q for _, q in adversarial_pairs]
        same, proxy = model.leaf_pairs(ps, qs)
        notes += ["an adversarial pair turned out to lie on one leaf; skipped"] * int(same.sum())
        keep = np.flatnonzero(~same).tolist()
        record_distinct([ps[i] for i in keep], [qs[i] for i in keep], proxy[keep])
        notes.append(f"{len(adversarial_pairs)} adversarial pair(s) supplied by the caller")

    attempts = 0
    max_attempts = 50 * num_pairs
    sampled = 0
    while sampled < num_pairs and attempts < max_attempts:
        # one draw per batch gives the rows that one draw per point would, and
        # a batch holds no more pairs than can still be accepted or attempted
        batch = draw(model.ambient_dim, 2 * min(num_pairs - sampled, max_attempts - attempts), rng)
        ps, qs = batch[0::2], batch[1::2]
        same, proxy = model.leaf_pairs(ps, qs)
        keep = np.flatnonzero(~same)
        attempts += len(same)
        sampled += len(keep)
        record_distinct(ps[keep], qs[keep], proxy[keep])
    if sampled < num_pairs:
        raise InsufficientDistinctPairs(
            f"found only {sampled} distinct-leaf pairs in {attempts} attempts"
        )

    margin_by_proxy = {}
    for threshold in _PROXY_BINS:
        eligible = [dist for dist, proxy in zip(distances, proxies) if proxy >= threshold]
        if eligible:
            margin_by_proxy[f">={threshold:g}"] = min(eligible)

    min_distinct = min([float("inf")] + distances)
    if max_same == 0.0:
        margin = float("inf") if min_distinct > 0 else 0.0
    else:
        margin = min_distinct / max_same

    return SeparationCertificate(
        model=model.name,
        generator_count=len(gens.generators),
        generator_provenance=dict(gens.provenance),
        num_same_pairs=num_same,
        max_same_discrepancy=max_same,
        num_distinct_pairs=len(distances),
        min_distinct_distance=min_distinct,
        margin_ratio=margin,
        margin_by_proxy=margin_by_proxy,
        failures=failures,
        tol_same=tol_same,
        seed=rng_seed,
        notes=notes,
    )


def quotient_image_export(
    gens,
    num_samples: int,
    rng_seed: int,
    path,
    model,
) -> int:
    """Write sampled sphere points and their generator images to CSV.

    Columns: sphere coordinates, image coordinates, then leaf-invariant
    labels where the model provides them (the level value for isoparametric
    models, plane radii for torus models).  Deterministic given the seed.
    Returns the number of data rows written.
    """
    dim = gens.ambient_dim
    rng = np.random.default_rng(rng_seed)
    points = sample_sphere_many(num_samples, dim, rng) if num_samples > 0 else np.zeros((0, dim))

    header = [f"x{i + 1}" for i in range(dim)]
    header += [f"rho{i + 1}" for i in range(len(gens.generators))]
    header += model.leaf_label_names

    images = [p.to_float().eval_rows(points)[:, None] for p in gens.generators]
    table = np.hstack([points, *images, model.leaf_labels(points)])
    # the bytes of csv.writer: every name is a plain identifier and every
    # float its repr, so nothing is quoted
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(map(repr, row)) + "\r\n" for row in table.tolist())
    return int(points.shape[0])
