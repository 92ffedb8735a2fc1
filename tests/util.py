"""Shared helpers for the test suite."""

import math
from fractions import Fraction
from operator import add, mul

import numpy as np
from hypothesis import strategies as st

from leafavg import EXACT, FLOAT, Polynomial, basic_subspace, monomial_basis
from leafavg.averaging import generator_products
from leafavg.basic_ring import gram_schmidt_polys, project_residual
from leafavg.exactlinalg import primitive_integer_row, rref
from leafavg.models import PointBatch, _window_margin, compose_with_matrix, sample_sphere_many
from leafavg.polynomials import sphere_norm


def random_homogeneous(dim, degree, rng, n_terms=6, mode=EXACT):
    """Random sparse homogeneous polynomial with small integer coefficients."""
    basis = monomial_basis(dim, degree)
    picks = rng.choice(len(basis), size=min(n_terms, len(basis)), replace=False)
    coeffs = rng.integers(-5, 6, size=len(picks))
    terms = {basis[int(i)]: int(c) for i, c in zip(picks, coeffs) if c != 0}
    if not terms:
        terms = {basis[0]: 1}
    if mode != EXACT:
        terms = {e: float(c) for e, c in terms.items()}
    return Polynomial(dim, terms, mode)


@st.composite
def exact_polys(draw, dim=2, max_degree=3):
    """Hypothesis strategy: exact polynomials with up to four terms."""
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        expo = tuple(draw(st.integers(0, max_degree)) for _ in range(dim))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if coeff:
            terms[expo] = terms.get(expo, 0) + coeff
    return Polynomial(dim, {e: c for e, c in terms.items() if c != 0})


def swap_and_flip(n):
    """The swap of x1, x2 and the sign flip of x1 on R^n, integer matrices
    generating an order-8 group whose slices grow with n as the monomials do."""
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(n)] for i in range(n)]
    flip = [[(-1 if i == 0 else 1) * int(i == j) for j in range(n)] for i in range(n)]
    return [swap, flip]


def sample_sphere(ambient_dim, seed):
    """One uniform sphere point, deterministic in the seed."""
    return sample_sphere_many(1, ambient_dim, np.random.default_rng(seed))[0]


def euler_apply(p):
    """Radial derivation ``sum_i x_i * d p / d x_i`` (degree times p on
    homogeneous input, computed through the actual derivatives)."""
    return sum((Polynomial.variable(p.ambient_dim, i, p.mode) * p.partial(i)
                for i in range(p.ambient_dim)), Polynomial.zero(p.ambient_dim, p.mode))


def fraction_rotation_mate(model, p, rng):
    """The exact torus mate composed in ``Fraction`` arithmetic: the
    reference for the integer composition in ``random_leaf_mate``."""
    cos_sin = []
    for _ in range(model.torus_rank):
        tau = Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 13)))
        den = 1 + tau * tau
        cos_sin.append(((1 - tau * tau) / den, 2 * tau / den))
    out = []
    for j in range(model.n_planes):
        c, s = Fraction(1), Fraction(0)
        for t in range(model.torus_rank):
            w = model.weight_matrix[j][t]
            ct, st = cos_sin[t]
            if w < 0:
                st, w = -st, -w
            for _ in range(w):
                c, s = c * ct - s * st, c * st + s * ct
        x, y = Fraction(p[2 * j]), Fraction(p[2 * j + 1])
        out.extend((c * x - s * y, s * x + c * y))
    out.extend(Fraction(x) for x in p[2 * model.n_planes:])
    return tuple(out)


def integer_matrix_closure(generators):
    """The breadth-first closure of exact generators on integer matrices over
    one denominator, in lowest terms, as ``Fraction`` matrices: the reference
    order of ``group_closure`` (element k is the k-th new product
    ``element * generator``, elements in order, generators in order)."""
    factors = []
    for g in generators:
        den = math.lcm(*(Fraction(x).denominator for row in g for x in row))
        factors.append((tuple(zip(*[[int(Fraction(x) * den) for x in row] for row in g])), den))
    n = len(generators[0])
    keys = [(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)]
    seen = set(keys)
    for rows, den in keys:
        for cols, factor_den in factors:
            prod = [[sum(map(mul, row, col)) for col in cols] for row in rows]
            c = math.gcd(den * factor_den, *(x for row in prod for x in row))
            key = (tuple(tuple(x // c for x in row) for row in prod), den * factor_den // c)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return tuple(tuple(tuple(Fraction(x, den) for x in row) for row in rows) for rows, den in keys)


def element_orbit_sum(model, expo):
    """``sum_g (x^expo)(g x)`` over a signed-permutation group, one element
    matrix at a time: ``(g x)_i = s_i x_(perm_i)`` takes ``x^expo`` to
    ``prod_i s_i^expo_i x_(perm_i)^expo_i``.  Counts per image in order of
    first appearance, zero counts kept: the reference for
    ``FiniteGroupModel._signed_orbit_sum``."""
    counts = {}
    for g in model.elements:
        image, sign = [0] * len(expo), 1
        for i, row in enumerate(g):
            (j, s), = [(j, s) for j, s in enumerate(row) if s]
            image[j], sign = expo[i], sign * int(s) ** expo[i]
        counts[tuple(image)] = counts.get(tuple(image), 0) + sign
    return counts


def signed_det(perm, signs):
    """det(I - t*g) of the signed permutation ``g x = (s_i x_(perm_i))_i`` in
    ints, one element at a time: the product over its cycles c of
    ``1 - e_c t^|c|``, with ``e_c`` the product of the signs on c.  The
    reference for the Molien factor counts of ``FiniteGroupModel.det_counts``."""
    poly, seen = [1] + [0] * len(perm), set()
    for i in range(len(perm)):
        length, sign = 0, 1
        while i not in seen:
            seen.add(i)
            length, sign, i = length + 1, sign * signs[i], perm[i]
        if length:
            poly = [c - sign * poly[k - length] if k >= length else c for k, c in enumerate(poly)]
    return tuple(poly)


def unblocked_eval_many(poly, points):
    """``Polynomial.eval_many`` on every row at once, with full-length power
    tables: the reference for the blocked evaluator."""
    points = np.asarray(points, dtype=float)
    out = np.zeros(points.shape[0])
    if poly.is_zero:
        return out
    max_exp = [0] * poly.ambient_dim
    for expo in poly.terms:
        for i, e in enumerate(expo):
            if e > max_exp[i]:
                max_exp[i] = e
    tables = []
    for i, m in enumerate(max_exp):
        col = points[:, i]
        tab = [None, col]
        for _ in range(1, m):
            tab.append(tab[-1] * col)
        tables.append(tab)
    for expo, coeff in poly.terms.items():
        factors = [tables[i][e] for i, e in enumerate(expo) if e]
        if not factors:
            out += float(coeff)
            continue
        term = factors[0] * float(coeff)
        for factor in factors[1:]:
            term *= factor
        out += term
    return out


def two_copy_cloud(model, seed, count, level):
    """``LevelSetSampler``'s ``(points, level_values, grad_norms)`` built with
    a second band-sized array: the band drawn in one call, sorted by
    gathering each coordinate into the second array, and the gradient norms
    computed from ``level_values ** 2``.  The reference for the build of
    ``LevelSetSampler.__init__``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    reach = model.h + 2.0 * _window_margin(model.h)
    lo, hi = level - reach, level + reach
    law = model.level_law
    targets = law.draw(rng.binomial(count, law.band_probability(lo, hi)), lo, hi, rng)
    points = model.transport(sample_sphere_many(len(targets), model.ambient_dim, rng), targets)
    levels = model.F.eval_many(points)
    order = np.argsort(levels)
    level_values = np.take(levels, order)
    del levels
    columns = np.empty((model.ambient_dim, len(order)))
    for i, column in enumerate(columns):
        np.take(points[:, i], order, out=column, mode="clip")
    del points
    grad_norms = model.g * np.sqrt(np.clip(1.0 - level_values ** 2, 0.0, None))
    return columns.T, level_values, grad_norms


def _reference_average(model, f):
    """The group average summed one pullback polynomial at a time: the
    reference for an exact group's ``reynolds``, which projects onto the
    basic slices."""
    total = Polynomial.zero(f.ambient_dim, f.mode)
    for g in model.elements:
        total = total + compose_with_matrix(f, g)
    return total.scale(Fraction(1, model.order) if f.mode == EXACT else 1.0 / model.order)


def torus_balanced(model, imbalance):
    """Whether ``W^T k = 0`` for the plane imbalances ``k_j = a_j - b_j``:
    every torus parameter's weighted sum of them vanishes."""
    return all(sum(w * k for w, k in zip(column, imbalance)) == 0
               for column in zip(*model.weight_matrix))


def walked_torus_rows(model, degree):
    """The rows of ``TorusModel.slice_rows`` found by walking every monomial
    of the degree, each as a sorted tuple of its nonzero terms: the real and
    imaginary parts of every balanced ``z^a zbar^b w^c`` whose first nonzero
    imbalance ``a_j - b_j`` is negative (one of each conjugate pair), multiplied
    out one factor ``x_j +- i y_j`` at a time.  The reference for the
    plane-by-plane enumeration."""
    dim, m = model.ambient_dim, model.n_planes

    def var(i):
        return Polynomial.monomial(dim, tuple(int(j == i) for j in range(dim)), 1)

    rows = set()
    for expo in monomial_basis(dim, degree):
        imbalance = [expo[2 * j] - expo[2 * j + 1] for j in range(m)]
        if next((k for k in imbalance if k), 0) > 0 or not torus_balanced(model, imbalance):
            continue
        re = Polynomial.monomial(dim, (0,) * (2 * m) + expo[2 * m:], 1)
        im = Polynomial.zero(dim)
        for j in range(m):
            x, y = var(2 * j), var(2 * j + 1)
            for fy in [y] * expo[2 * j] + [-y] * expo[2 * j + 1]:  # z_j = x + i y, zbar_j = x - i y
                re, im = re * x - im * fy, re * fy + im * x
        rows.add(tuple(sorted(re.terms.items())))
        if any(imbalance):  # z^a zbar^a is real
            rows.add(tuple(sorted(im.terms.items())))
    return rows


def _gaussian_fraction_reynolds(model, f):
    """The torus average expanded in Gaussian-rational ``Fraction`` pairs:
    complexify, keep the weight-balanced ``z^a zbar^b``, realify.  The
    reference for ``reynolds``, which projects onto the basic slices."""
    zero = (Fraction(0), Fraction(0))

    def gadd(a, b):
        return (a[0] + b[0], a[1] + b[1])

    def gmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def ipow(k):
        return ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))[k % 4]

    def complexify(p, q):
        out = {}
        for s in range(p + 1):
            for t in range(q + 1):
                sign = -1 if (q - t) % 2 else 1
                coeff = (Fraction(math.comb(p, s) * math.comb(q, t) * sign, 2 ** (p + q)), Fraction(0))
                key = (s + t, (p + q) - (s + t))
                out[key] = gadd(out.get(key, zero), gmul(coeff, ipow(-q % 4)))
        return out

    def realify(a, b):
        out = {}
        for s in range(a + 1):
            for t in range(b + 1):
                coeff = gmul((Fraction(math.comb(a, s) * math.comb(b, t)), Fraction(0)),
                             ipow((a - s) - (b - t)))
                key = (s + t, (a + b) - (s + t))
                out[key] = gadd(out.get(key, zero), coeff)
        return out

    exact = f.to_exact()
    m = model.n_planes
    complex_terms = {}
    for expo, coeff in exact.terms.items():
        partial = {(): (coeff, Fraction(0))}
        for j in range(m):
            expansion = complexify(expo[2 * j], expo[2 * j + 1])
            partial = {ab + (pair,): gmul(c, pc) for ab, c in partial.items() for pair, pc in expansion.items()}
        for ab, c in partial.items():
            key = (ab, expo[2 * m:])
            complex_terms[key] = gadd(complex_terms.get(key, zero), c)
    real_terms = {}
    for (ab, fixed), coeff in complex_terms.items():
        if coeff == zero or not torus_balanced(model, [a - b for a, b in ab]):
            continue
        partial = {(): coeff}
        for a, b in ab:
            expansion = realify(a, b)
            partial = {prefix + pair: gmul(c, pc) for prefix, c in partial.items() for pair, pc in expansion.items()}
        for prefix, c in partial.items():
            real_terms[prefix + fixed] = gadd(real_terms.get(prefix + fixed, zero), c)
    assert all(im == 0 for _, im in real_terms.values())
    result = Polynomial(model.ambient_dim, {e: re for e, (re, _) in real_terms.items() if re != 0}, EXACT)
    return result.to_float() if f.mode == FLOAT else result


def _slice_remainders(model, generators, degree):
    """The slice ``B_degree`` of an exact model, its vectors orthogonalized
    and each minus its projection onto the orthogonalized generator products."""
    basis = basic_subspace(model, degree)
    ortho, norms = gram_schmidt_polys([p for _, p in generator_products(generators, degree)])
    return basis, [project_residual(b, ortho, norms) for b in basis.polynomials()]


def gram_schmidt_discovery(model, cap):
    """Exact generator discovery that orthogonalizes every degree: the new
    generators of degree d are the primitive rows, leading entry positive, of
    the rref of the slice remainders.  The reference for the rank cover of
    ``discover_generators``; returns generators, degrees and dimensions."""
    generators, degrees, dims = [], [], {}
    for d in range(1, cap + 1):
        basis, rests = _slice_remainders(model, generators, d)
        dims[d] = basis.rank
        monomials = monomial_basis(model.ambient_dim, d)  # every monomial, not the slice's support
        reduced, _ = rref([[r.coefficient(e) for e in monomials] for r in rests])
        for row in reduced:
            generators.append(Polynomial(model.ambient_dim, dict(zip(monomials, primitive_integer_row(row)))))
            degrees.append(d)
    return generators, degrees, dims


def dense_slice(model, degree):
    """The exact slice over every monomial of the degree: the model's
    ``slice_rows`` in Fraction rref over all the columns, then
    orthogonalized in order.  The reference for ``basic_subspace``, whose
    slices live on the monomials their rows touch; returns the rank and the
    orthogonal polynomials."""
    monomials = monomial_basis(model.ambient_dim, degree)
    reduced, _ = rref([[row.get(e, 0) for e in monomials] for row in model.slice_rows(degree)])
    polys = [Polynomial(model.ambient_dim, dict(zip(monomials, row))) for row in reduced]
    return len(reduced), gram_schmidt_polys(polys)[0]


def gram_schmidt_residuals(model, generators, max_degree):
    """The largest remainder norm of each slice against the generator
    products of its degree, every degree orthogonalized: the reference for
    ``verify_generation`` on an exact model."""
    return {d: max(map(sphere_norm, _slice_remainders(model, list(generators), d)[1]), default=0.0)
            for d in range(1, max_degree + 1)}


def object_sphere_batch(ambient_dim, count, rng, denominator=16):
    """``rational_sphere_batch`` in Python ints throughout: the reference for
    the int64 arithmetic it picks when its bound allows."""
    q = denominator
    k = rng.integers(-2 * q, 2 * q + 1, size=(count, ambient_dim - 1)).astype(object)
    s = (k * k).sum(axis=1)
    return PointBatch(np.column_stack([2 * q * k, s - q * q]), s + q * q)


def object_torus_mates(model, batch, rng):
    """The exact branch of ``TorusModel.leaf_mates`` in Python ints
    throughout: the reference for the int64 arithmetic it picks when its
    bound allows."""
    draws = rng.integers([-12, 1], [13, 13], size=(len(batch), model.torus_rank, 2))
    a, b = draws.astype(object).transpose(2, 1, 0)
    cos, sin, den = b * b - a * a, 2 * a * b, a * a + b * b
    g = np.gcd(np.gcd(cos, sin), den)
    cos, sin, den = cos // g, sin // g, den // g
    tops = [max(abs(row[t]) for row in model.weight_matrix) for t in range(model.torus_rank)]
    common = np.prod([d ** top for d, top in zip(den, tops)], axis=0)
    out = []
    for j, weights in enumerate(model.weight_matrix):
        c, s, scale = 1, 0, 1
        for t, w in enumerate(weights):
            st = sin[t] if w > 0 else -sin[t]
            for _ in range(abs(w)):
                c, s = c * cos[t] - s * st, c * st + s * cos[t]
            scale = scale * den[t] ** (tops[t] - abs(w))
        x, y = batch.nums[:, 2 * j], batch.nums[:, 2 * j + 1]
        out += [(c * x - s * y) * scale, (s * x + c * y) * scale]
    out += [batch.nums[:, i] * common for i in range(2 * model.n_planes, model.ambient_dim)]
    return PointBatch(np.stack(out, axis=1), batch.dens * common)


# -- a term-dict reference for polynomial arithmetic ---------------------------------
#
# Plain dicts from exponent tuples to ``Fraction`` (or float) coefficients, run
# through the loops ``Polynomial`` used when it stored ``Fraction``s: the
# reference for its integer numerators over one denominator.  Each loop keeps
# the term order of the polynomial arithmetic: a key whose running sum cancels
# is dropped, and comes back at the end.


def ref_accumulate(out, pairs):
    """Add each ``(exponents, coefficient)`` of ``pairs`` into ``out`` in order."""
    for expo, c in pairs:
        c = out.get(expo, 0) + c
        if c == 0:
            out.pop(expo, None)
        else:
            out[expo] = c
    return out


def ref_add(a, b):
    return ref_accumulate(dict(a), b.items())


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    return ref_accumulate({}, ((tuple(map(add, ea, eb)), ca * cb)
                               for ea, ca in a.items() for eb, cb in b.items()))


def ref_scale(a, scalar):
    return {e: scalar * c for e, c in a.items() if scalar * c != 0}


def ref_pow(a, n, dim, one=Fraction(1)):
    """Square and multiply from the constant ``one``, as ``Polynomial.__pow__``."""
    result, base = {(0,) * dim: one}, a
    while n:
        if n & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def ref_partial(a, index):
    out = {}
    for expo, c in a.items():
        if expo[index]:
            out[expo[:index] + (expo[index] - 1,) + expo[index + 1:]] = c * expo[index]
    return out


def ref_laplacian(a, dim):
    out = {}
    for i in range(dim):
        out = ref_add(out, ref_partial(ref_partial(a, i), i))
    return out


def ref_compose(a, matrix, dim, one=Fraction(1)):
    """The pullback ``x -> a(M x)``, one power polynomial per row and exponent."""
    rows = [{tuple(int(k == j) for k in range(dim)): c for j, c in enumerate(row) if c != 0}
            for row in matrix]
    out = {}
    for expo, c in a.items():
        term = {(0,) * dim: c}
        for i, e in enumerate(expo):
            if e:
                term = ref_mul(term, ref_pow(rows[i], e, dim, one))
        out = ref_add(out, term)
    return out


def ref_sphere_mean(a, dim):
    """``sum_e c_e prod_i (e_i - 1)!! / (dim (dim + 2) ... (dim + |e| - 2))``
    over the all-even exponent tuples ``e``, in ``Fraction``s."""
    total = Fraction(0)
    for expo, c in a.items():
        if not any(e % 2 for e in expo):
            num = math.prod(math.prod(range(e - 1, 0, -2)) for e in expo)
            total += c * Fraction(num, math.prod(dim + 2 * k for k in range(sum(expo) // 2)))
    return total
