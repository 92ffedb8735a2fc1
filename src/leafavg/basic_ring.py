"""Degree-by-degree discovery of generators of the basic polynomial ring.

The ring of leaf-constant (basic) polynomials is finitely generated; this
module realizes the generating set constructively.  For each degree ``d``
up to a user-chosen cap:

1. average every degree-``d`` monomial (``basic_subspace``) and
   orthonormalize the results under the sphere pairing -- that is the full
   basic slice ``B_d``;
2. span the degree-``d`` products of previously found generators;
3. adopt an orthogonal complement of that product span inside ``B_d`` as
   the new generators, sparsified to readable representatives.

``verify_generation`` runs steps 1 and 2 on the same slices and reports how
far each slice reaches outside the product span.

For finite matrix groups the per-degree dimensions have a classical
independent oracle, the Molien series, implemented here with exact rational
series arithmetic so the two dimension computations can be compared on the
nose.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .averaging import COND_CAP, _FitContext, _scaled_lstsq, generator_products
from .errors import (
    DegreeCapWarning,
    GenerationGap,
    RankUnstable,
    ScalarModeMismatch,
)
from .exactlinalg import primitive_integer_row, rref
from .models import FiniteGroupModel
from .polynomials import (
    EXACT,
    FLOAT,
    Polynomial,
    format_polynomial,
    moment_table,
    monomial_basis,
    parse_polynomial,
    rationalize,
    sphere_inner,
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


def poly_to_vector(p: Polynomial, monomials: Sequence[tuple]):
    index = {expo: i for i, expo in enumerate(monomials)}
    vec = [0] * len(monomials)
    for expo, coeff in p.terms.items():
        vec[index[expo]] = coeff
    return vec


def vector_to_poly(vec, monomials: Sequence[tuple], ambient_dim: int, mode: str) -> Polynomial:
    return Polynomial(ambient_dim, {e: c for e, c in zip(monomials, vec)}, mode)


def gram_schmidt_polys(polys: Sequence[Polynomial]) -> Tuple[List[Polynomial], List]:
    """Orthogonalize under the sphere pairing (no normalization, so exact
    mode stays inside the rationals).  Zero remainders are dropped."""
    ortho: List[Polynomial] = []
    norms: List = []
    for p in polys:
        for b, n2 in zip(ortho, norms):
            coeff = sphere_inner(p, b) / n2
            if coeff != 0:
                p = p - b.scale(coeff)
        n2 = sphere_inner(p, p)
        if n2 != 0:
            ortho.append(p)
            norms.append(n2)
    return ortho, norms


def project_residual(p: Polynomial, ortho: Sequence[Polynomial], norms: Sequence) -> Polynomial:
    """Remainder of ``p`` after subtracting its projection onto the span."""
    for b, n2 in zip(ortho, norms):
        coeff = sphere_inner(p, b) / n2
        if coeff != 0:
            p = p - b.scale(coeff)
    return p


def _gram_matrix(ambient_dim: int, monomials: Sequence[tuple]) -> np.ndarray:
    table = moment_table(ambient_dim)
    size = len(monomials)
    gram = np.empty((size, size))
    for i, a in enumerate(monomials):
        for j in range(i, size):
            value = float(table.moment(tuple(x + y for x, y in zip(a, monomials[j]))))
            gram[i, j] = value
            gram[j, i] = value
    return gram


def _remainders(
    mode: str, monomials: Sequence[tuple], polys: Sequence[Polynomial], span: Sequence[Polynomial]
) -> Tuple[List[Polynomial], List[float]]:
    """``polys`` minus their sphere-orthogonal projection onto the span of
    ``span``, in ``mode``, with the sphere norm of each remainder.

    Every polynomial is homogeneous of one degree over ``monomials``.  Exact
    mode projects in rationals; float mode under the moment Gram matrix, with
    the rank of ``span`` cut at 1e-10 on the sphere-norm scale.
    """
    if mode == EXACT:
        ortho, norms = gram_schmidt_polys([q.to_exact() for q in span])
        remainders = [project_residual(p.to_exact(), ortho, norms) for p in polys]
        return remainders, [sphere_norm(r) for r in remainders]
    ambient_dim = len(monomials[0])
    gram = _gram_matrix(ambient_dim, monomials)
    span_rows, _ = _orthonormal_rows(_coefficient_rows(span, monomials), gram, 1e-10)
    rows = _coefficient_rows(polys, monomials)
    rows = rows - rows @ gram @ span_rows.T @ span_rows
    return (
        [vector_to_poly(row, monomials, ambient_dim, FLOAT) for row in rows],
        [float(np.sqrt(max(row @ gram @ row, 0.0))) for row in rows],
    )


@dataclass
class SubspaceBasis:
    """A basis of the basic slice in one degree.

    ``ortho_polys`` are sphere-orthogonal: exact pipelines keep them in
    rationals without normalizing; float pipelines keep them orthonormal,
    together with the singular values that justified the rank decision.
    """

    degree: int
    mode: str
    ambient_dim: int
    monomials: Tuple[tuple, ...]
    ortho_polys: List[Polynomial]
    singular_values: Optional[List[float]] = None

    @property
    def rank(self) -> int:
        return len(self.ortho_polys)

    def polynomials(self) -> List[Polynomial]:
        return list(self.ortho_polys)

    def residual(self, p: Polynomial) -> float:
        """Sphere-norm distance from ``p`` to the subspace."""
        return _remainders(self.mode, self.monomials, [p], self.ortho_polys)[1][0]


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
        [[float(c) for c in poly_to_vector(p.to_float(), monomials)] for p in polys]
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


def basic_subspace(
    model,
    degree: int,
    *,
    tol_rank: float = 1e-8,
    seed: int = 0,
    sample_points: Optional[int] = None,
    mc_samples: Optional[int] = None,
) -> SubspaceBasis:
    """Image of the averaging operator on the degree-``degree`` slice.

    Averages every monomial of the degree and orthonormalizes the results
    under the sphere pairing.  Exact rank in rational mode; tolerance-based
    rank (with a singular-value audit) for the statistical engine, whose
    leaf averages take the model's bandwidth ``h`` and pass the same
    effective-sample-size guard and condition cap as :func:`average`.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    monomials = tuple(monomial_basis(model.ambient_dim, degree))

    if model.closed_form:
        averaged = [
            model.reynolds(Polynomial.monomial(model.ambient_dim, expo, 1, model.mode))
            for expo in monomials
        ]
        if model.mode == EXACT:
            reduced, _ = rref([poly_to_vector(p, monomials) for p in averaged])
            ortho, _ = gram_schmidt_polys(
                [vector_to_poly(row, monomials, model.ambient_dim, EXACT) for row in reduced]
            )
            return SubspaceBasis(degree, EXACT, model.ambient_dim, monomials, ortho)
        matrix = _coefficient_rows(averaged, monomials)
    else:
        ctx = _FitContext(model, degree, seed, sample_points, mc_samples)
        estimates, _ = ctx.responses(*(
            Polynomial.monomial(model.ambient_dim, expo, 1.0, FLOAT) for expo in monomials
        ))
        # fitted coefficients, one column per averaged monomial
        fitted, _, _ = _scaled_lstsq(ctx.design(monomials), estimates.T, COND_CAP)
        matrix = fitted.T
    rows, sing = _orthonormal_rows(matrix, _gram_matrix(model.ambient_dim, monomials), tol_rank)
    return SubspaceBasis(
        degree,
        FLOAT,
        model.ambient_dim,
        monomials,
        [vector_to_poly(row, monomials, model.ambient_dim, FLOAT) for row in rows],
        singular_values=list(map(float, sing)),
    )


def _degree_slices(model, cap: int, seed: int, tol_rank: float,
                   sample_points: Optional[int], mc_samples: Optional[int]):
    """Yield ``(d, basic_subspace(model, d))`` for ``d = 1..cap``; degree ``d``
    draws its statistical estimates from the seed ``SeedSequence([seed, d])``."""
    for d in range(1, cap + 1):
        degree_seed = int(np.random.SeedSequence([seed, d]).generate_state(1)[0])
        yield d, basic_subspace(
            model,
            d,
            tol_rank=tol_rank,
            seed=degree_seed,
            sample_points=sample_points,
            mc_samples=mc_samples,
        )


# -- Molien oracle ------------------------------------------------------------


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return out


def _det_identity_minus_tg(matrix) -> List[Fraction]:
    """Coefficients of det(I - t*g) as a polynomial in t (exact)."""
    n = len(matrix)
    entries = [
        [
            (Fraction(1) if i == j else Fraction(0), -Fraction(matrix[i][j]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    memo: Dict[Tuple[int, int], List[Fraction]] = {}

    def minor(row: int, used: int) -> List[Fraction]:
        if row == n:
            return [Fraction(1)]
        key = (row, used)
        got = memo.get(key)
        if got is not None:
            return got
        acc = [Fraction(0)]
        sign = 1
        for j in range(n):
            if used & (1 << j):
                continue
            entry = entries[row][j]
            if entry[0] != 0 or entry[1] != 0:
                sub = _poly_mul(list(entry), minor(row + 1, used | (1 << j)))
                if sign < 0:
                    sub = [-x for x in sub]
                if len(acc) < len(sub):
                    acc = acc + [Fraction(0)] * (len(sub) - len(acc))
                for i, x in enumerate(sub):
                    acc[i] += x
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, 0)


def _series_invert(poly: Sequence[Fraction], max_degree: int) -> List[Fraction]:
    if poly[0] != 1:
        raise ValueError("series inversion expects constant term 1")
    inv = [Fraction(1)] + [Fraction(0)] * max_degree
    for k in range(1, max_degree + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(poly) - 1) + 1):
            acc += poly[j] * inv[k - j]
        inv[k] = -acc
    return inv


def molien_dimensions(model: FiniteGroupModel, max_degree: int) -> List[int]:
    """Dimensions of the degree-``d`` invariants, ``d = 0..max_degree``.

    Expands ``(1/|G|) sum_g 1/det(I - t g)`` with exact rational series
    arithmetic; the classical independent oracle for ``dim B_d``.
    """
    if not isinstance(model, FiniteGroupModel):
        raise TypeError("the Molien series is defined for finite groups")
    if model.mode != EXACT:
        raise ScalarModeMismatch("Molien series needs exact rational matrix entries")
    total = [Fraction(0)] * (max_degree + 1)
    for g in model.elements:
        inv = _series_invert(_det_identity_minus_tg(g), max_degree)
        for i in range(max_degree + 1):
            total[i] += inv[i]
    dims = []
    for value in total:
        value = value / model.order
        if value.denominator != 1:
            raise RuntimeError(f"non-integer Molien coefficient {value}")
        dims.append(int(value))
    return dims


# -- generator sets -----------------------------------------------------------


@dataclass
class GeneratorSet:
    """Homogeneous basic generators with degrees and provenance."""

    ambient_dim: int
    mode: str
    generators: Tuple[Polynomial, ...]
    degrees: Tuple[int, ...]
    degree_cap: int
    dims_by_degree: Dict[int, int]
    provenance: dict = field(default_factory=dict)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSet":
        ambient_dim = int(data["ambient_dim"])
        mode = data.get("mode", EXACT)
        gens = []
        degrees = []
        for item in data["generators"]:
            gens.append(parse_polynomial(item["text"], ambient_dim, mode))
            degrees.append(int(item["degree"]))
        return cls(
            ambient_dim=ambient_dim,
            mode=mode,
            generators=tuple(gens),
            degrees=tuple(degrees),
            degree_cap=int(data.get("degree_cap", max(degrees, default=0))),
            dims_by_degree={int(k): int(v) for k, v in data.get("dims_by_degree", {}).items()},
            provenance=data.get("provenance", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSet":
        return cls.from_dict(json.loads(text))


def _sparsify_exact(polys: Sequence[Polynomial], basis: SubspaceBasis) -> List[Polynomial]:
    """Primitive integer rows of the RREF of ``span(polys)``, which is
    canonical for the span (zero polynomials drop out)."""
    reduced, _ = rref([poly_to_vector(p, basis.monomials) for p in polys])
    return [
        vector_to_poly(primitive_integer_row(row), basis.monomials, basis.ambient_dim, EXACT)
        for row in reduced
    ]


def _sparsify_float(
    polys: Sequence[Polynomial], basis: SubspaceBasis, tol_rank: float
) -> List[Polynomial]:
    """Echelon representatives of the numerical span of ``polys``, each
    replaced by its small-denominator rounding when that stays close to it
    and to the slice."""
    gram = _gram_matrix(basis.ambient_dim, basis.monomials)
    rows, _ = _orthonormal_rows(_coefficient_rows(polys, basis.monomials), gram, tol_rank)
    out = []
    for row in _float_rref_rows(rows):
        poly = vector_to_poly([float(c) for c in row], basis.monomials, basis.ambient_dim, FLOAT)
        rational = rationalize(poly, MAX_DENOMINATOR)[0].to_float()
        scale = max(sphere_norm(poly), 1e-30)
        if sphere_norm(rational - poly) / scale <= CLEAN_TOL and basis.residual(rational) / scale <= CLEAN_TOL:
            poly = rational
        out.append(poly)
    return out


def discover_generators(
    model,
    degree_cap: int,
    *,
    tol_rank: float = 1e-8,
    seed: int = 0,
    sample_points: Optional[int] = None,
    mc_samples: Optional[int] = None,
) -> GeneratorSet:
    """Run the degree induction up to ``degree_cap``.

    Deterministic given (model, cap, tolerances, seed); the generator list
    for a smaller cap is a prefix of the list for a larger one.  Emits
    :class:`DegreeCapWarning` when new generators still appear at the cap.
    Isoparametric slices are estimated with the model's bandwidth ``h``.
    """
    if degree_cap < 1:
        raise ValueError("degree_cap must be at least 1")
    exact = model.closed_form and model.mode == EXACT
    generators: List[Polynomial] = []
    degrees: List[int] = []
    dims: Dict[int, int] = {}
    new_at_cap = False

    for d, basis in _degree_slices(model, degree_cap, seed, tol_rank, sample_points, mc_samples):
        dims[d] = basis.rank
        if basis.rank == 0:
            continue
        products = [p for _, p in generator_products(generators, d)]
        remainders, _ = _remainders(basis.mode, basis.monomials, basis.polynomials(), products)
        if exact:
            new_polys = _sparsify_exact(remainders, basis)
        else:
            new_polys = _sparsify_float(remainders, basis, tol_rank)

        for poly in new_polys:
            generators.append(poly)
            degrees.append(d)
        if d == degree_cap and new_polys:
            new_at_cap = True
            warnings.warn(
                f"new generators appeared at the degree cap {degree_cap}; "
                "the ring may need a larger cap",
                DegreeCapWarning,
            )

    provenance = {
        "model": model.describe(),
        "seed": seed,
        "tol_rank": tol_rank,
        "engine": "exact" if exact else "vandermonde_fit",
        "sample_points": sample_points,
        "mc_samples": mc_samples,
        "new_generators_at_cap": new_at_cap,
    }
    return GeneratorSet(
        ambient_dim=model.ambient_dim,
        mode=EXACT if exact else FLOAT,
        generators=tuple(generators),
        degrees=tuple(degrees),
        degree_cap=degree_cap,
        dims_by_degree=dims,
        provenance=provenance,
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


def verify_generation(
    model,
    gens: GeneratorSet,
    max_degree: int,
    *,
    seed: int = 0,
    sample_points: Optional[int] = None,
    mc_samples: Optional[int] = None,
    tol_rank: float = 1e-8,
) -> GenerationReport:
    """Check the basic slice of every degree <= cap against the algebra.

    Projects the basis of each slice that :func:`discover_generators` builds
    onto the degree slice of the algebra generated by ``gens`` and reports
    the worst remainder norm per degree.  Raises :class:`GenerationGap`
    (with the report attached) when some degree exceeds the tolerance: 0
    for an exact model, 0.05 for a statistical or float one.
    Isoparametric slices are estimated with the model's bandwidth ``h``.
    """
    tol = 0.0 if model.closed_form and model.mode == EXACT else 5e-2
    residuals: Dict[int, float] = {}
    for d, basis in _degree_slices(model, max_degree, seed, tol_rank, sample_points, mc_samples):
        products = [p for _, p in generator_products(list(gens.generators), d)]
        _, norms = _remainders(basis.mode, basis.monomials, basis.polynomials(), products)
        residuals[d] = max(norms, default=0.0)
    report = GenerationReport(max_residual_by_degree=residuals, tolerance=tol)
    if report.gaps():
        raise GenerationGap(report.gaps(), report=report)
    return report
