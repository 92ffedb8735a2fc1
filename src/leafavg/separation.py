"""Separation certificates for the generator map.

Evaluating all generators at once gives a polynomial map into R^k that is
constant on leaves; on samples, two points should map to the same value
exactly when they lie on the same leaf.  ``separation_test`` collects
evidence for both directions: same-leaf pairs (point plus a leaf companion)
must have negligible image discrepancy, distinct-leaf pairs must stay
separated, and the certificate records the margin between the two regimes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, InsufficientDistinctPairs
from .models import sample_sphere_many
from .polynomials import EXACT

_PROXY_BINS = (1e-3, 1e-2, 1e-1)


def rho_eval(gens, point) -> tuple:
    """Evaluate the generator map at a point (exact when inputs allow)."""
    values = []
    for p in gens.generators:
        if len(point) != p.ambient_dim:
            raise DimensionMismatch("point dimension does not match generators")
        values.append(p.eval(point))
    return tuple(values)


def _rho_distance(a: Sequence, b: Sequence) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


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
    margin_min: float
    seed: int
    notes: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        passed = not self.failures and self.margin_ratio > self.margin_min
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
            "margin_min": self.margin_min,
            "seed": self.seed,
            "notes": self.notes,
            "verdict": self.verdict,
        }


def rational_sphere_points(
    ambient_dim: int, count: int, rng: np.random.Generator, denominator: int = 16
) -> List[tuple]:
    """Exact rational points on the unit sphere via stereographic projection.

    With ``u`` a random rational vector, the point
    ``(2u, |u|^2 - 1) / (|u|^2 + 1)`` has unit norm exactly, so generator
    invariance can be certified with zero floating error.
    """
    from fractions import Fraction

    raw = rng.integers(-2 * denominator, 2 * denominator + 1, size=(count, ambient_dim - 1))
    points = []
    for row in raw:
        u = [Fraction(int(v), denominator) for v in row]
        s = sum(x * x for x in u)
        points.append(tuple(2 * x / (s + 1) for x in u) + ((s - 1) / (s + 1),))
    return points


def _sample_points(model, count: int, rng: np.random.Generator, exact: bool):
    if exact:
        return rational_sphere_points(model.ambient_dim, count, rng)
    pts = sample_sphere_many(count, model.ambient_dim, rng)
    return [tuple(float(x) for x in row) for row in pts]


def separation_test(
    model,
    gens,
    num_pairs: int,
    tol_same: float,
    rng_seed: int,
    *,
    margin_min: float = 10.0,
    same_leaf_tol: Optional[float] = None,
    adversarial_pairs: Optional[Sequence[Tuple[tuple, tuple]]] = None,
) -> SeparationCertificate:
    """Sample same-leaf and distinct-leaf pairs on the sphere and certify
    that the generator map separates them.

    Same-leaf companions come from a random group element, a random torus
    phase (exact rational rotations for exact points), or -- for
    isoparametric models -- the configured leaf-preserving symmetry;
    without one, same-leaf testing degenerates to the level predicate and
    is skipped with a note.  Distinct pairs are rejection-sampled through
    the model's own same-leaf predicate.  ``adversarial_pairs`` are extra
    candidate pairs checked alongside the sampled ones (collision witnesses
    live on measure-zero sets that random sampling cannot hit).
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")
    rng = np.random.default_rng(rng_seed)
    exact = model.closed_form and model.mode == EXACT and gens.mode == EXACT
    if same_leaf_tol is None:
        same_leaf_tol = 1e-9 if model.closed_form else model.tol_level

    notes: List[str] = []
    failures: List[dict] = []

    # same-leaf side
    max_same = 0.0
    num_same = 0
    if not model.closed_form and model.symmetry is None:
        notes.append(
            "no leaf-transitive symmetry configured; same-leaf pairs skipped "
            "(same-leaf testing degenerates to the level predicate)"
        )
    else:
        points = _sample_points(model, num_pairs, rng, exact)
        for p in points:
            mate = model.random_leaf_mate(p, rng)
            disc = _rho_distance(rho_eval(gens, p), rho_eval(gens, mate))
            num_same += 1
            if disc > max_same:
                max_same = disc
            if disc > tol_same:
                failures.append({
                    "kind": "same_leaf_discrepancy",
                    "point": [float(x) for x in p],
                    "mate": [float(x) for x in mate],
                    "rho_distance": disc,
                })

    # distinct-leaf side
    min_distinct = float("inf")
    distinct: List[Tuple[tuple, tuple, float]] = []

    def record_distinct(p, q):
        nonlocal min_distinct
        dist = _rho_distance(rho_eval(gens, p), rho_eval(gens, q))
        distinct.append((p, q, dist))
        if dist < min_distinct:
            min_distinct = dist
        if dist <= tol_same:
            failures.append({
                "kind": "distinct_leaf_collision",
                "point": [float(x) for x in p],
                "other": [float(x) for x in q],
                "rho_distance": dist,
            })

    for p, q in adversarial_pairs or []:
        if model.same_leaf(p, q, same_leaf_tol):
            notes.append("an adversarial pair turned out to lie on one leaf; skipped")
            continue
        record_distinct(p, q)
    if adversarial_pairs:
        notes.append(f"{len(adversarial_pairs)} adversarial pair(s) supplied by the caller")

    attempts = 0
    max_attempts = 50 * num_pairs
    sampled = 0
    while sampled < num_pairs and attempts < max_attempts:
        attempts += 1
        p = _sample_points(model, 1, rng, exact)[0]
        q = _sample_points(model, 1, rng, exact)[0]
        if model.same_leaf(p, q, same_leaf_tol):
            continue
        record_distinct(p, q)
        sampled += 1
    if sampled < num_pairs:
        raise InsufficientDistinctPairs(
            f"found only {sampled} distinct-leaf pairs in {attempts} attempts"
        )

    proxies = [model.quotient_distance(p, q) for p, q, _ in distinct]
    margin_by_proxy = {}
    for threshold in _PROXY_BINS:
        eligible = [
            dist for (_, _, dist), proxy in zip(distinct, proxies) if proxy >= threshold
        ]
        if eligible:
            margin_by_proxy[f">={threshold:g}"] = min(eligible)

    if max_same == 0.0:
        margin = float("inf") if min_distinct > 0 else 0.0
    else:
        margin = min_distinct / max_same

    return SeparationCertificate(
        model=model.describe(),
        generator_count=len(gens.generators),
        generator_provenance=dict(gens.provenance),
        num_same_pairs=num_same,
        max_same_discrepancy=max_same,
        num_distinct_pairs=len(distinct),
        min_distinct_distance=min_distinct,
        margin_ratio=margin,
        margin_by_proxy=margin_by_proxy,
        failures=failures,
        tol_same=tol_same,
        margin_min=margin_min,
        seed=rng_seed,
        notes=notes,
    )


def quotient_image_export(
    gens,
    num_samples: int,
    rng_seed: int,
    path,
    model=None,
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
    if model is not None:
        header += model.leaf_label_names

    float_gens = [p.to_float() for p in gens.generators]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in points:
            point = [float(x) for x in row]
            record = [repr(x) for x in point]
            record += [repr(float(p.eval(point))) for p in float_gens]
            if model is not None:
                record += [repr(x) for x in model.leaf_labels(point)]
            writer.writerow(record)
    return int(points.shape[0])
