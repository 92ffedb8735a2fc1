"""The leaf-averaging operator as a polynomial-to-polynomial map.

Every model averages in closed form by its ``reynolds``: a group or a torus
by its invariants, an isoparametric model by the level law of its
Cartan-Munzner polynomial.  :func:`average` returns an
:class:`AveragingCertificate` carrying the operator identity residuals
(``idempotence``, ``leaf_constancy``, ``laplacian`` commutation,
``contraction`` slack, ``selfadjoint`` gap); on an isoparametric model it also
compares the average with plain means of ``f`` over points carried onto
fixed levels (:func:`_transported_means`), an estimate that shares no code
with ``reynolds``.  :func:`average_structured` writes the average as a
combination of generator products, and :func:`verify_operator_identities`
checks the identities on one pair of polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BasisDeficient, IdentityViolation
from .exactlinalg import solve_gram
from .models import FLOAT_TOLERANCE, IsoparametricModel, PointBatch, sample_sphere_many
from .polynomials import (
    EXACT,
    Polynomial,
    format_polynomial,
    sphere_inner,
    sphere_mean,
    sphere_norm,
    weighted_exponent_patterns,
)

# denominator of the random rational points of the exact certificate checks
POINT_DENOMINATOR = 64
# the transported-means check of an isoparametric average: the levels, the
# points per level, and the largest |z| (two-sided 1e-4, Bonferroni over the
# five levels: the normal quantile 1 - 1e-5 is 4.265)
TRANSPORT_LEVELS = (-0.8, -0.4, 0.0, 0.4, 0.8)
TRANSPORT_POINTS = 20_000
Z_LIMIT = 4.26
# a float generator product whose remainder against the earlier ones has at
# most this share of the largest squared sphere norm counts as dependent
DEPENDENT_SHARE = 1e-12


def cycle_probe(f: Polynomial) -> Polynomial:
    """Deterministic companion polynomial: rotate the coordinates of ``f``.

    Used as the second argument of self-adjointness checks; falls back to
    ``x1^d``, ``d`` the degree of ``f``, when ``f`` is symmetric under the
    rotation.  The fallback keeps the degree: the sphere pairing of degrees
    ``d`` and ``d + 1`` is identically 0, which would make the check vacuous.
    """
    probe = Polynomial._trusted(f.ambient_dim, {e[-1:] + e[:-1]: n for e, n in f._nums.items()},
                                f._den, f.mode)
    if probe == f:
        probe = Polynomial.variable(f.ambient_dim, 0, f.mode) ** f.homogeneous_degree()
    return probe


def generator_products(generators: Sequence[Polynomial], target: int) -> List[Tuple[tuple, Polynomial]]:
    """Products of generators of total degree ``target`` (with multiplicity
    patterns), deduplicated by pattern, deterministic order.  At ``target``
    0 the only product is the empty one, the constant 1."""
    if not generators:  # no products, nor a dimension for the constant
        return []
    if target == 0:
        g = generators[0]
        return [((0,) * len(generators), Polynomial.constant(g.ambient_dim, 1, g.mode))]
    out = []
    powers: Dict[Tuple[int, int], Polynomial] = {}
    for pattern in weighted_exponent_patterns([g.homogeneous_degree() for g in generators], target):
        factors = []
        for i, e in enumerate(pattern):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = generators[i] ** e
                factors.append(powers[i, e])
        out.append((pattern, reduce(Polynomial.__mul__, factors)))
    return out


# -- certificates ------------------------------------------------------------


@dataclass
class AveragingCertificate:
    """Record of one application of the averaging operator.

    Residuals measure identity violations and are all non-negative; in
    particular ``contraction`` is the amount by which the contraction
    inequality fails (0 whenever ``mean(f^2) >= mean([f]^2)`` holds, which
    is exact in rational mode).  ``fit`` is the transported-means check of
    an isoparametric average (:func:`_transported_means`), None on groups
    and tori.
    """

    model: str
    engine: str
    mode: str
    degree: int
    input_text: str
    average_text: str
    residuals: Dict[str, float]
    exact: bool
    seed: Optional[int] = None
    fit: Optional[dict] = None
    average_poly: Polynomial = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "engine": self.engine,
            "mode": self.mode,
            "degree": self.degree,
            "input": self.input_text,
            "average": self.average_text,
            "residuals": dict(sorted(self.residuals.items())),
            "exact": self.exact,
            "seed": self.seed,
            "fit": self.fit,
        }

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


@dataclass
class StructuredAverageResult:
    """Average written in the generator algebra's degree slice: the sum of
    ``coefficients`` times the products of ``patterns``, ``residual`` off it."""

    polynomial: Polynomial
    coefficients: List[float]
    patterns: List[tuple]
    residual: float

    def to_dict(self) -> dict:
        return {
            "average": format_polynomial(self.polynomial),
            "coefficients": [float(c) + 0.0 for c in self.coefficients],  # + 0.0: no -0.0 for a zero
            "patterns": [list(p) for p in self.patterns],
            "residual": self.residual,
        }


@dataclass
class IdentityReport:
    """Residuals of the operator identities for one (f, g) probe pair."""

    model: str
    engine: str
    residuals: Dict[str, float]
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "engine": self.engine,
            "residuals": dict(sorted(self.residuals.items())),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


# -- operator identities -----------------------------------------------------


def identity_residuals(f: Polynomial, g: Polynomial, avg_f: Polynomial, avg_g: Polynomial,
                       avg_avg_f: Polynomial, avg_lap_f: Polynomial,
                       avg_module: Optional[Polynomial] = None) -> Dict[str, float]:
    """Residuals of the operator identities, given the averages they compare.

    ``avg_f`` and ``avg_g`` average ``f`` and ``g``; ``avg_avg_f`` averages
    ``avg_f`` (idempotence); ``avg_lap_f`` averages the Laplacian of ``f``
    (commutation with the Laplacian); ``avg_module``, when given, averages
    ``avg_f * g`` (the module property over the basic multiplier ``avg_f``).
    """
    residuals = {
        "idempotence": sphere_norm(avg_avg_f - avg_f),
        "selfadjoint": abs(float(sphere_inner(avg_f, g) - sphere_inner(f, avg_g))),
        # clamped before the float conversion: 0 on exact input of any size
        "contraction": float(max(0, sphere_mean(avg_f * avg_f) - sphere_mean(f * f))),
        "laplacian": sphere_norm(avg_f.laplacian() - avg_lap_f),
    }
    if avg_module is not None:
        residuals["module"] = sphere_norm(avg_module - avg_f * avg_g)
    return residuals


class _Averages(NamedTuple):
    """The averages a certificate of ``f`` and its probe compares, by
    ``model.reynolds``."""

    avg: Polynomial
    probe_avg: Polynomial
    avg_again: Polynomial
    lap_avg: Polynomial


def _averages(model, f: Polynomial, probe: Polynomial) -> _Averages:
    avg = model.reynolds(f)
    return _Averages(avg, model.reynolds(probe), model.reynolds(avg), model.reynolds(f.laplacian()))


def _mate_constancy(model, avg: Polynomial, seed: int) -> float:
    """Largest change of ``avg`` between four random points and their leaf
    mates (one ``leaf_mates`` call); in exact mode the points are rational,
    in the cube [-2, 2]^d.  A float symmetry returns float mates of rational
    points, which are then compared in floats."""
    rng = np.random.default_rng(seed)
    if avg.mode == EXACT:
        raw = rng.integers(-2 * POINT_DENOMINATOR, 2 * POINT_DENOMINATOR + 1,
                           size=(4, model.ambient_dim))
        batch = PointBatch(raw.astype(object), np.full(4, POINT_DENOMINATOR, dtype=object))
        mates = model.leaf_mates(batch, rng)
        points, mates = ((batch.points(), mates.points()) if isinstance(mates, PointBatch)
                         else (batch.floats().tolist(), mates.tolist()))
    else:
        batch = rng.normal(size=(4, model.ambient_dim))
        points, mates = batch.tolist(), model.leaf_mates(batch, rng).tolist()
    return max([0.0] + [abs(float(avg.eval(mate) - avg.eval(p))) for p, mate in zip(points, mates)])


def _transported_means(model: IsoparametricModel, f: Polynomial, avg: Polynomial,
                       seed: int) -> Tuple[dict, float]:
    """Check ``avg`` against plain means of ``f`` on the leaves of
    ``TRANSPORT_LEVELS``: ``TRANSPORT_POINTS`` uniform sphere points carried
    onto each level by ``model.transport`` are uniform on its leaf, so their
    mean of ``f`` estimates the leaf average with standard error ``SE``, no
    bandwidth and no bias.  ``z = (mean f - mean avg) / SE`` per level (the
    SE floored at the model's tolerance, as a basic ``f`` has none), and the
    check passes when every ``|z| <= Z_LIMIT``.  Also returns the largest
    deviation of ``avg`` from its mean over a level's points."""
    rng = np.random.default_rng(seed)
    z_scores, spread = [], 0.0
    for level in TRANSPORT_LEVELS:
        points = model.transport(sample_sphere_many(TRANSPORT_POINTS, model.ambient_dim, rng),
                                 np.full(TRANSPORT_POINTS, level))
        values, leaf = f.eval_many(points), avg.eval_many(points)
        leaf_mean = float(leaf.mean())
        spread = max(spread, float(np.abs(leaf - leaf_mean).max()))
        se = float(values.std(ddof=1)) / math.sqrt(TRANSPORT_POINTS)
        z_scores.append((float(values.mean()) - leaf_mean) / max(se, model.tolerance))
    check = {
        "levels": list(TRANSPORT_LEVELS),
        "points_per_level": TRANSPORT_POINTS,
        "z_scores": z_scores,
        "z_limit": Z_LIMIT,
        "passed": max(map(abs, z_scores)) <= Z_LIMIT,
    }
    return check, spread


# -- public operations -------------------------------------------------------


def average(model, f: Polynomial, *, seed: int = 0) -> AveragingCertificate:
    """Average a homogeneous polynomial by ``model.reynolds``, with a
    populated certificate.  :func:`cycle_probe` of ``f`` is the second
    argument of the self-adjointness residual.  ``leaf_constancy`` compares
    the average at leaf mates (:func:`_mate_constancy`); an isoparametric
    model without a symmetry reads it off the transported points of its
    ``fit`` check instead.
    """
    if not f.is_homogeneous():
        raise ValueError("average expects a homogeneous polynomial")
    degree = f.homogeneous_degree()
    probe = cycle_probe(f)
    a = _averages(model, f, probe)
    if not a.avg.is_zero and a.avg.homogeneous_degree() != degree:
        raise IdentityViolation("degree_preservation", float("inf"),
                                "average left the homogeneous degree slice")
    residuals = identity_residuals(f, probe, a.avg, a.probe_avg, a.avg_again, a.lap_avg)
    fit = None
    if isinstance(model, IsoparametricModel):
        fit, spread = _transported_means(model, f, a.avg, seed)
    if fit is not None and model.symmetry is None:
        residuals["leaf_constancy"] = spread
    else:
        residuals["leaf_constancy"] = _mate_constancy(model, a.avg, seed)
    return AveragingCertificate(
        model=model.name,
        engine=model.engine,
        mode=f.mode,
        degree=degree,
        input_text=format_polynomial(f),
        average_text=format_polynomial(a.avg),
        residuals=residuals,
        exact=(f.mode == EXACT),
        seed=seed,
        fit=fit,
        average_poly=a.avg,
    )


def average_structured(model, f: Polynomial, gens) -> StructuredAverageResult:
    """The average of a homogeneous ``f`` written as a combination of the
    degree-``deg f`` products of ``gens.generators``: its sphere-orthogonal
    projection onto their span, from their Gram system (exact when the
    average and every generator are exact, else in floats, where a product
    dependent on the earlier ones gets coefficient 0).  Raises
    :class:`BasisDeficient` when the remainder's sphere norm exceeds the
    model's ``tolerance`` (``FLOAT_TOLERANCE`` for a float system), which is
    evidence the generator set is incomplete.
    """
    if not f.is_homogeneous():
        raise ValueError("average_structured expects a homogeneous polynomial")
    degree = f.homogeneous_degree()
    if not gens.generators:
        raise BasisDeficient("empty generator set")
    avg = model.reynolds(f)
    exact = avg.mode == EXACT and all(p.mode == EXACT for p in gens.generators)
    if not exact:
        avg = avg.to_float()
    products = generator_products([p if exact else p.to_float() for p in gens.generators], degree)
    if not products:
        raise BasisDeficient(f"no generator products reach degree {degree}")
    polys = [poly for _, poly in products]
    gram = [[sphere_inner(p, q) for q in polys] for p in polys]
    coeffs = solve_gram(gram, [sphere_inner(p, avg) for p in polys], 0.0 if exact else DEPENDENT_SHARE)
    poly = reduce(Polynomial.__add__, (p.scale(c) for c, p in zip(coeffs, polys)))
    residual = sphere_norm(avg - poly)
    tolerance = model.tolerance if exact else FLOAT_TOLERANCE  # a float system rounds, on any model
    if residual > tolerance:
        raise BasisDeficient(
            f"structured residual {residual:.4g} above tolerance {tolerance:g}", residual=residual
        )
    return StructuredAverageResult(polynomial=poly, coefficients=coeffs,
                                   patterns=[pattern for pattern, _ in products], residual=residual)


def verify_operator_identities(model, f: Polynomial, g: Polynomial) -> IdentityReport:
    """Check the five operator identities for the pair ``(f, g)``.

    (i) idempotence, (ii) self-adjointness of the sphere pairing,
    (iii) contraction, (iv) the module property over a basic multiplier,
    (v) commutation with the Laplacian, by :func:`identity_residuals` on
    ``model.reynolds`` of ``f``, ``g``, the average of ``f``, the Laplacian
    of ``f`` and ``avg_f * g``.  The worst residual must not exceed the
    model's ``tolerance``: 0 on an exact model, ``FLOAT_TOLERANCE`` else.
    The report's ``engine`` is the model's.  Raises
    :class:`IdentityViolation` naming the worst offender, with the report.
    """
    a = _averages(model, f, g)
    residuals = identity_residuals(f, g, a.avg, a.probe_avg, a.avg_again, a.lap_avg,
                                   model.reynolds(a.avg * g))
    worst = max(residuals, key=lambda k: residuals[k])
    passed = residuals[worst] <= model.tolerance
    report = IdentityReport(
        model=model.name,
        engine=model.engine,
        residuals=residuals,
        tolerance=model.tolerance,
        passed=passed,
    )
    if not passed:
        error = IdentityViolation(worst, residuals[worst])
        error.report = report
        raise error
    return report
