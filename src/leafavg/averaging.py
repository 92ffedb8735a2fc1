"""The leaf-averaging operator as a polynomial-to-polynomial map.

Group and torus models average exactly (closed form); isoparametric models
go through a two-stage statistical engine:

1. estimate the leaf average of ``f`` at sample points kept away from the
   focal levels, then
2. solve a column-scaled least-squares system for the coefficients of a
   homogeneous polynomial of the same degree (the degree-preserving ansatz;
   restriction of homogeneous polynomials to the sphere is injective, so the
   design matrix has full column rank for generic samples).

:func:`average` returns an :class:`AveragingCertificate` carrying the
operator identity residuals (``idempotence``, ``leaf_constancy``, ``laplacian``
commutation, ``contraction`` slack, ``selfadjoint`` gap) plus fit diagnostics
when the statistical engine ran; :func:`average_polynomial` returns the average alone.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BasisDeficient, IdentityViolation, IllConditionedFit
from .models import IsoparametricModel, LevelSetSampler, PointBatch
from .polynomials import (
    EXACT,
    FLOAT,
    Polynomial,
    format_polynomial,
    monomial_basis,
    sphere_inner,
    sphere_mean,
    sphere_norm,
    weighted_exponent_patterns,
)

ENGINE_EXACT = "exact"
ENGINE_VANDERMONDE = "vandermonde_fit"

# condition-number cap of every least-squares fit of leaf averages
COND_CAP = 1e8
# largest residual RMS of a structured fit inside the generator algebra
STRUCTURED_TOL = 1e-2
# denominator of the random rational points of the exact certificate checks
POINT_DENOMINATOR = 64


def cycle_probe(f: Polynomial) -> Polynomial:
    """Deterministic companion polynomial: rotate the coordinates of ``f``.

    Used as the second argument of self-adjointness checks; falls back to
    ``x1^d``, ``d`` the degree of ``f``, when ``f`` is symmetric under the
    rotation.  The fallback keeps the degree: the sphere pairing of degrees
    ``d`` and ``d + 1`` is identically 0, which would make the check vacuous.
    """
    terms = {}
    for expo, coeff in f.terms.items():
        terms[expo[-1:] + expo[:-1]] = coeff
    probe = Polynomial(f.ambient_dim, terms, f.mode)
    if probe == f:
        probe = Polynomial.variable(f.ambient_dim, 0, f.mode) ** f.homogeneous_degree()
    return probe


def generator_products(generators: Sequence[Polynomial], target: int) -> List[Tuple[tuple, Polynomial]]:
    """Products of generators of total degree ``target`` (with multiplicity
    patterns), deduplicated by pattern, deterministic order."""
    degrees = [g.homogeneous_degree() for g in generators]
    out = []
    power_cache: Dict[Tuple[int, int], Polynomial] = {}

    def power(i: int, e: int) -> Polynomial:
        key = (i, e)
        if key not in power_cache:
            power_cache[key] = generators[i] ** e
        return power_cache[key]

    for pattern in weighted_exponent_patterns(degrees, target):
        if sum(pattern) == 0:
            continue  # the empty product is the constant, not a degree-d element
        poly = None
        for i, e in enumerate(pattern):
            if e:
                p = power(i, e)
                poly = p if poly is None else poly * p
        out.append((pattern, poly))
    return out


# -- certificates ------------------------------------------------------------


@dataclass
class AveragingCertificate:
    """Record of one application of the averaging operator.

    Residuals measure identity violations and are all non-negative; in
    particular ``contraction`` is the amount by which the contraction
    inequality fails (0 whenever ``mean(f^2) >= mean([f]^2)`` holds, which
    is exact in rational mode).
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
    """Average expressed in the generator algebra's degree-m slice."""

    polynomial: Polynomial
    coefficients: List[float]
    patterns: List[tuple]
    residual_rms: float
    unstructured_residual_rms: float
    condition: float
    seed: int
    sample_count: int
    mc_samples: int
    point_ses: List[float]

    def to_dict(self) -> dict:
        return {
            "average": format_polynomial(self.polynomial),
            "coefficients": list(self.coefficients),
            "patterns": [list(p) for p in self.patterns],
            "residual_rms": self.residual_rms,
            "unstructured_residual_rms": self.unstructured_residual_rms,
            "condition": self.condition,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "mc_samples": self.mc_samples,
            "max_point_se": max(self.point_ses, default=0.0),
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
    """The averages a certificate compares, with ``f`` and ``probe`` in the
    engine's scalar mode; a fit adds its leaf constancy and diagnostics."""

    f: Polynomial
    probe: Polynomial
    avg: Polynomial
    probe_avg: Polynomial
    avg_again: Polynomial
    lap_avg: Polynomial
    leaf_constancy: Optional[float] = None
    fit: Optional[dict] = None


def _mate_constancy(model, avg: Polynomial, seed: int) -> float:
    """Largest change of ``avg`` between four random points and their leaf
    mates (one ``leaf_mates`` call); in exact mode the points are rational,
    in the cube [-2, 2]^d."""
    rng = np.random.default_rng(seed)
    if avg.mode == EXACT:
        raw = rng.integers(-2 * POINT_DENOMINATOR, 2 * POINT_DENOMINATOR + 1,
                           size=(4, model.ambient_dim))
        batch = PointBatch(raw.astype(object), np.full(4, POINT_DENOMINATOR, dtype=object))
        points, mates = batch.points(), model.leaf_mates(batch, rng).points()
    else:
        batch = rng.normal(size=(4, model.ambient_dim))
        points, mates = batch.tolist(), model.leaf_mates(batch, rng).tolist()
    return max([0.0] + [abs(float(avg.eval(mate) - avg.eval(p))) for p, mate in zip(points, mates)])


# -- statistical engine ------------------------------------------------------

# full clouds each model keeps, least recently used first, the first dropped
# before the next is built.  A cloud is a pure function of the model, the seed
# and the count.  verify's probe n reads the seeds s, s + 1 and s + 2 with
# s = seed + 100 + n, so probe n + 1 reads the two last used before it builds
# s + 3, and avg's structured fit reuses its average's cloud, the last used.
CLOUDS_KEPT = 2
_CLOUDS: "weakref.WeakKeyDictionary[IsoparametricModel, OrderedDict]" = weakref.WeakKeyDictionary()


def _full_cloud(model: IsoparametricModel, seed: int, count: int) -> LevelSetSampler:
    """The full cloud of ``count`` samples of a fit context at ``seed``,
    drawn once while it is among the model's last ``CLOUDS_KEPT``."""
    clouds = _CLOUDS.setdefault(model, OrderedDict())
    key = (seed, count)
    if key in clouds:
        clouds.move_to_end(key)
        return clouds[key]
    if len(clouds) >= CLOUDS_KEPT:
        clouds.popitem(last=False)
    cloud_seed = np.random.SeedSequence(seed).spawn(2)[1]
    clouds[key] = LevelSetSampler(model, cloud_seed, count)
    return clouds[key]


class _FitContext:
    """Shared sample cloud, fit points and responses for one fit session."""

    def __init__(self, model: IsoparametricModel, degree: int, seed: int,
                 sample_points: Optional[int], mc_samples: Optional[int]):
        self.model = model
        # the first child seeds the fit points, the second the cloud
        point_seed = np.random.SeedSequence(seed).spawn(2)[0]
        self.monomials = monomial_basis(model.ambient_dim, degree)
        # the restriction of the degree slice to the sphere is injective, so
        # 2x oversampling keeps the design full rank; never drop below it
        self.sample_count = max(sample_points or 0, 2 * len(self.monomials))
        self.points = model.fit_points(self.sample_count, np.random.default_rng(point_seed))
        self.levels = model.F.eval_many(self.points)
        self.mc_samples = mc_samples or model.sample_count
        self.sampler = _full_cloud(model, seed, self.mc_samples)
        self._designs: Dict[tuple, np.ndarray] = {}

    def responses(self, *polys: Polynomial, se_rows: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Leaf-average estimates of each polynomial (one row each) at every
        fit level, and the SEs of the first ``se_rows`` of them."""
        values = np.empty((len(polys), len(self.sampler.points)))
        for row, f in zip(values, polys):
            row[:] = f.eval_many(self.sampler.points)
        return self.sampler.leaf_average_values(values, self.levels, se_rows)

    def design(self, monomials: Sequence[tuple]) -> np.ndarray:
        """The fit points' values of ``monomials``, one column each; built once."""
        key = tuple(monomials)
        if key not in self._designs:
            self._designs[key] = np.column_stack([
                Polynomial.monomial(self.model.ambient_dim, expo, 1.0, FLOAT).eval_many(self.points)
                for expo in monomials
            ])
        return self._designs[key]

    def fit(self, responses: np.ndarray, degree: int, cond_cap: float):
        """The degree-``degree`` polynomial fitted to ``responses``, with the
        fit's condition estimate and residual RMS."""
        monomials = monomial_basis(self.model.ambient_dim, degree)
        coeffs, condition, rms = _scaled_lstsq(self.design(monomials), responses, cond_cap)
        poly = Polynomial(self.model.ambient_dim,
                          {e: float(c) for e, c in zip(monomials, coeffs)}, FLOAT)
        return poly, condition, rms


def _scaled_lstsq(design: np.ndarray, rhs: np.ndarray, cond_cap: float):
    """Least squares with column scaling; returns (coeffs, condition, residual_rms).

    ``rhs`` is a vector or a matrix of right-hand sides (one per column); the
    RMS is then taken over every entry.
    """
    scales = np.linalg.norm(design, axis=0)
    scales[scales == 0.0] = 1.0
    scaled = design / scales
    sv = np.linalg.svd(scaled, compute_uv=False)
    positive = sv[sv > sv[0] * 1e-14] if len(sv) else sv
    condition = float(sv[0] / positive[-1]) if len(positive) else float("inf")
    if condition > cond_cap:
        raise IllConditionedFit(
            f"condition estimate {condition:.3e} above cap {cond_cap:.1e}; resample"
        )
    solution, *_ = np.linalg.lstsq(scaled, rhs, rcond=None)
    coeffs = (solution.T / scales).T
    residual = (design @ coeffs - rhs).ravel()
    rms = math.sqrt(float(residual @ residual) / len(residual))
    return coeffs, condition, rms


def _averages(model, f: Polynomial, probe: Polynomial, seed: int, sample_points: Optional[int],
              mc_samples: Optional[int], cond_cap: float, fit_probe: bool = True) -> _Averages:
    """The averages a certificate of ``f`` compares: by ``model.reynolds`` in
    closed form; else fitted from two estimator passes over one cloud, one
    for ``f``, its probe and its Laplacian, one for the fitted average.
    Without ``fit_probe`` a fitted model leaves the probe out of the first
    pass and its ``probe_avg`` is None; every row is estimated on its own, so
    the other averages keep their bits."""
    if model.closed_form:
        avg = model.reynolds(f)
        return _Averages(f, probe, avg, model.reynolds(probe), model.reynolds(avg),
                         model.reynolds(f.laplacian()))
    degree = f.homogeneous_degree()
    f = f.to_float()
    probe = probe.to_float()
    lap_f = f.laplacian()
    with_lap = degree >= 2 and not lap_f.is_zero
    ctx = _FitContext(model, degree, seed, sample_points, mc_samples)

    # one pass over the cloud for f, its probe and its Laplacian
    rows = [f, *([probe] if fit_probe else []), *([lap_f] if with_lap else [])]
    responses, ses = ctx.responses(*rows, se_rows=1)  # max_point_se reads f's SEs
    avg, condition, rms = ctx.fit(responses[0], degree, cond_cap)
    if with_lap:
        lap_avg, _, _ = ctx.fit(responses[-1], degree - 2, cond_cap)
    else:
        lap_avg = Polynomial.zero(model.ambient_dim, FLOAT)
    probe_avg = ctx.fit(responses[1], probe.homogeneous_degree(), cond_cap)[0] if fit_probe else None

    # a second pass for the fitted average and its square on the same cloud
    values = np.empty((2, len(ctx.sampler.points)))
    values[0] = avg.eval_many(ctx.sampler.points)
    np.square(values[0], out=values[1])
    again, _ = ctx.sampler.leaf_average_values(values, ctx.levels, se_rows=0)
    e1, e2 = again[:, :8]
    leaf_constancy = math.sqrt(max([0.0, *(e2 - e1 * e1).tolist()]))
    avg_again, _, _ = ctx.fit(again[0], degree, cond_cap)

    fit = {
        "sample_count": ctx.sample_count,
        "mc_samples": ctx.mc_samples,
        "bandwidth": model.h,
        "condition": condition,
        "residual_rms": rms,
        "max_point_se": float(np.max(ses[0])) if ses.shape[1] else 0.0,
    }
    return _Averages(f, probe, avg, probe_avg, avg_again, lap_avg, leaf_constancy, fit)


# -- public operations -------------------------------------------------------


def average_polynomial(model, f: Polynomial, *, seed: int = 0, sample_points: Optional[int] = None,
                       mc_samples: Optional[int] = None) -> Polynomial:
    """The average of a homogeneous ``f`` without a certificate.

    ``model.reynolds(f)`` for closed-form models; for isoparametric models
    one estimator pass over the cloud and one fit, the same estimates and
    fit as the average of :func:`average` with the same arguments.
    """
    if model.closed_form:
        return model.reynolds(f)
    degree = f.homogeneous_degree()
    ctx = _FitContext(model, degree, seed, sample_points, mc_samples)
    (responses,), _ = ctx.responses(f.to_float())
    return ctx.fit(responses, degree, COND_CAP)[0]


def average(
    model,
    f: Polynomial,
    *,
    seed: int = 0,
    probe: Optional[Polynomial] = None,
    sample_points: Optional[int] = None,
    mc_samples: Optional[int] = None,
    cond_cap: float = COND_CAP,
) -> AveragingCertificate:
    """Average a homogeneous polynomial, with a populated certificate.

    Exact engine for group/torus models; level-set fit engine for
    isoparametric models, whose kernel bandwidth is the model's ``h``.
    ``probe`` (default :func:`cycle_probe` of ``f``) is the second argument
    of the self-adjointness residual.
    """
    if not f.is_homogeneous():
        raise ValueError("average expects a homogeneous polynomial")
    degree = f.homogeneous_degree()
    probe = cycle_probe(f) if probe is None else probe
    a = _averages(model, f, probe, seed, sample_points, mc_samples, cond_cap)
    if not a.avg.is_zero and a.avg.homogeneous_degree() != degree:
        raise IdentityViolation("degree_preservation", float("inf"),
                                "average left the homogeneous degree slice")
    residuals = identity_residuals(a.f, a.probe, a.avg, a.probe_avg, a.avg_again, a.lap_avg)
    residuals["leaf_constancy"] = (_mate_constancy(model, a.avg, seed)
                                   if model.closed_form else a.leaf_constancy)
    return AveragingCertificate(
        model=model.describe(),
        engine=ENGINE_EXACT if model.closed_form else ENGINE_VANDERMONDE,
        mode=a.f.mode,
        degree=degree,
        input_text=format_polynomial(a.f),
        average_text=format_polynomial(a.avg),
        residuals=residuals,
        exact=(a.f.mode == EXACT),
        seed=seed,
        fit=a.fit,
        average_poly=a.avg,
    )


def average_structured(
    model: IsoparametricModel,
    f: Polynomial,
    gens,
    *,
    seed: int = 0,
    sample_points: Optional[int] = None,
    mc_samples: Optional[int] = None,
) -> StructuredAverageResult:
    """Fit the average of ``f`` inside the generator algebra's degree slice.

    Much smaller and better conditioned than the full monomial fit; raises
    :class:`BasisDeficient` when the slice cannot explain the sampled leaf
    averages (residual RMS above ``STRUCTURED_TOL``), which is evidence the
    generator set is incomplete.  The leaf averages come from the same
    estimator as :func:`average`, with the model's bandwidth ``h``.
    """
    if not f.is_homogeneous():
        raise ValueError("average_structured expects a homogeneous polynomial")
    degree = f.homogeneous_degree()
    generators = [p.to_float() for p in gens.generators]
    if not generators:
        raise BasisDeficient("empty generator set")
    products = generator_products(generators, degree)
    if not products:
        raise BasisDeficient(
            f"no generator products reach degree {degree}"
        )
    f = f.to_float()
    ctx = _FitContext(model, degree, seed, sample_points, mc_samples)
    (responses,), (ses,) = ctx.responses(f, se_rows=1)

    columns = [poly.eval_many(ctx.points) for _, poly in products]
    design = np.column_stack(columns)
    coeffs, condition, rms = _scaled_lstsq(design, responses, COND_CAP)

    _, _, mono_rms = _scaled_lstsq(ctx.design(ctx.monomials), responses, COND_CAP)

    if rms > STRUCTURED_TOL:
        raise BasisDeficient(
            f"structured residual {rms:.4g} above tolerance {STRUCTURED_TOL:g}", residual=rms
        )
    poly = Polynomial.zero(model.ambient_dim, FLOAT)
    for c, (_, basis_poly) in zip(coeffs, products):
        poly = poly + basis_poly.scale(float(c))
    return StructuredAverageResult(
        polynomial=poly,
        coefficients=[float(c) for c in coeffs],
        patterns=[pattern for pattern, _ in products],
        residual_rms=rms,
        unstructured_residual_rms=mono_rms,
        condition=condition,
        seed=seed,
        sample_count=ctx.sample_count,
        mc_samples=ctx.mc_samples,
        point_ses=[float(s) for s in ses],
    )


def verify_operator_identities(
    model,
    f: Polynomial,
    g: Polynomial,
    *,
    seed: int = 0,
    tol: Optional[float] = None,
    sample_points: Optional[int] = None,
    mc_samples: Optional[int] = None,
) -> IdentityReport:
    """Check the five operator identities for the pair ``(f, g)``.

    (i) idempotence, (ii) self-adjointness of the sphere pairing,
    (iii) contraction, (iv) the module property over a basic multiplier,
    (v) commutation with the Laplacian, by :func:`identity_residuals` on
    the averages of :func:`average` at ``seed`` (without leaf mates) and the
    certificate-free :func:`average_polynomial` of ``avg_f * g`` at
    ``seed + 2`` and, on a fitted model, of ``g`` at ``seed + 1``.  Exact
    models are checked exactly (default tolerance 0 in rational mode, 1e-10
    for floating matrix entries); isoparametric models statistically, with
    the model's bandwidth ``h`` and residuals normalized by the operand norms.
    Raises :class:`IdentityViolation` naming the worst offender.
    """
    fit_args = {"sample_points": sample_points, "mc_samples": mc_samples}
    # reynolds is deterministic, so a closed-form g keeps the average of f's
    # probe; a fitted g is averaged on its own cloud instead, not on f's
    a = _averages(model, f, g, seed, cond_cap=COND_CAP, fit_probe=False, **fit_args)
    avg_g = (a.probe_avg if model.closed_form
             else average_polynomial(model, a.probe, seed=seed + 1, **fit_args))
    avg_module = average_polynomial(model, a.avg * a.probe, seed=seed + 2, **fit_args)
    residuals = identity_residuals(a.f, a.probe, a.avg, avg_g, a.avg_again, a.lap_avg, avg_module)
    if model.closed_form:
        engine = ENGINE_EXACT
        default_tol = 0.0 if model.mode == EXACT else 1e-10
    else:
        # statistical regime: residuals are scale-normalized by the operand
        # norms so the tolerance means the same thing for every probe
        engine = ENGINE_VANDERMONDE
        default_tol = 0.05
        scale_f = max(sphere_norm(f), 1e-12)
        scale_g = max(sphere_norm(g), 1e-12)
        scale_lap = max(sphere_norm(f.laplacian()), scale_f)
        scales = {
            "idempotence": scale_f,
            "selfadjoint": scale_f * scale_g,
            "contraction": scale_f * scale_f,
            "module": scale_f * scale_g,
            "laplacian": scale_lap,
        }
        residuals = {name: residuals[name] / scale for name, scale in scales.items()}
    tolerance = default_tol if tol is None else tol

    worst = max(residuals, key=lambda k: residuals[k])
    passed = residuals[worst] <= tolerance
    report = IdentityReport(
        model=model.describe(),
        engine=engine,
        residuals=residuals,
        tolerance=tolerance,
        passed=passed,
    )
    if not passed:
        error = IdentityViolation(worst, residuals[worst])
        error.report = report
        raise error
    return report
