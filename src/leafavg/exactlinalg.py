"""Small exact linear-algebra routines over the rationals and integers.

Everything here takes plain lists of :class:`fractions.Fraction` (or ints)
and is meant for desk-scale matrices: rank decisions in the generator
induction, reduced echelon forms for sparsifying generator representatives,
and saturated integer kernels for torus phase lattices.  The arithmetic runs
in Python integers: rational rows are cleared to primitive integer rows first.
:func:`solve_gram` solves the small Gram systems of leaf averages in the
scalars it is given, ``Fraction``s or floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivots normalized to 1) and the pivot column
    indices.  Fully deterministic: pivots are chosen left to right, first
    nonzero row wins.  The elimination is fraction-free (each row is cleared
    to primitive integers, see :func:`_integer_rref`); rationals appear only
    in the returned rows.
    """
    reduced, pivots = _integer_rref([primitive_integer_row(row) for row in rows])
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(reduced, pivots)], pivots


def _integer_rref(mat: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns the nonzero rows, each the primitive positive integer multiple of
    its reduced row echelon row, and the pivot column indices.  A row is
    eliminated as ``a * row - b * pivot_row``, with ``a / b`` the pivot over
    the row's entry in lowest terms, and the result is divided by its content,
    so every row stays primitive (cf. Bareiss, Math. Comp. 22, 1968).
    """
    if not mat:
        return [], []
    pivots: List[int] = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        pivot = prow[c]
        for i, row in enumerate(mat):
            b = row[c]
            if i == r or not b:
                continue
            g = math.gcd(pivot, b)
            a, b = pivot // g, b // g
            row = [a * x - b * y for x, y in zip(row, prow)]
            g = math.gcd(*row)
            mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(mat, pivots)], pivots


def solve_gram(gram: Sequence[Sequence], rhs: Sequence, tol: float = 0.0) -> list:
    """A solution ``y`` of ``gram y = rhs`` for a symmetric positive
    semidefinite ``gram``, in the scalars of the entries (``Fraction``s stay
    exact): Gauss-Jordan elimination in order, without row swaps.  An unknown
    whose pivot is at most ``tol`` times the largest diagonal entry is set to
    0; on a semidefinite matrix its row is then 0 up to that share, as the
    Gram row of a vector dependent on the earlier ones is."""
    n = len(rhs)
    rows = [list(row) + [c] for row, c in zip(gram, rhs)]
    cut = tol * max((rows[i][i] for i in range(n)), default=0)
    pivots = []
    for i in range(n):
        pivot = rows[i][i]
        if not pivot > cut:
            continue
        for row in rows:
            if row is not rows[i] and row[i]:
                ratio = row[i] / pivot
                row[:] = [x - ratio * y for x, y in zip(row, rows[i])]
        pivots.append(i)
    solution = [0 * c for c in rhs]
    for i in pivots:
        solution[i] = rows[i][n] / rows[i][i]
    return solution


def over_lcm(values) -> Tuple[List[int], int]:
    """``(nums, den)``: ints or ``Fraction``s as integer numerators over the
    lcm of their denominators.  When every value is in lowest terms, no
    prime divides ``den`` and all the numerators."""
    values = list(values)
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) if den > 1 else x.numerator for x in values], den


def primitive_integer_row(row: Sequence) -> List[int]:
    """Scale a row to coprime integers with positive leading entry.  An int
    row is divided by its content and sign; any other is first cleared to
    integers over the lcm of its denominators."""
    if not all(type(x) is int for x in row):
        row, _ = over_lcm(map(Fraction, row))
    g = math.gcd(*row)
    if next((v for v in row if v), 0) < 0:
        g = -g
    return [v // g for v in row] if g not in (0, 1) else list(row)


def integer_left_kernel(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the saturated lattice ``{v in Z^m : v M = 0}``.

    Row-reduces ``[M | I]`` with unimodular integer operations; rows whose
    ``M``-part vanishes yield the kernel through their ``I``-part.  Because
    the transformation is unimodular the returned basis is saturated (no
    finite-index sublattice artifacts), which is exactly what the torus
    phase-congruence test needs.
    """
    m = len(matrix)
    if m == 0:
        return []
    t = len(matrix[0])
    work = [[int(x) for x in row] + [1 if j == i else 0 for j in range(m)] for i, row in enumerate(matrix)]
    r = 0
    for c in range(t):
        while True:
            live = [i for i in range(r, m) if work[i][c] != 0]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                work[r], work[i] = work[i], work[r]
                break
            # reduce all rows against the smallest pivot (Euclid)
            live.sort(key=lambda i: abs(work[i][c]))
            p = live[0]
            for i in live[1:]:
                q = work[i][c] // work[p][c]
                work[i] = [a - q * b for a, b in zip(work[i], work[p])]
        if r < m and work[r][c] != 0:
            r += 1
    kernel = []
    for i in range(r, m):
        if all(work[i][c] == 0 for c in range(t)):
            kernel.append(work[i][t:])
    return kernel
