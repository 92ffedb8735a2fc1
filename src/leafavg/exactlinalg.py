"""Small exact linear-algebra routines over the rationals and integers.

Everything here operates on plain lists of :class:`fractions.Fraction`
(or ints) and is meant for desk-scale matrices: rank decisions in the
generator induction, reduced echelon forms for sparsifying generator
representatives, and saturated integer kernels for torus phase lattices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivots normalized to 1) and the pivot column
    indices.  Fully deterministic: pivots are chosen left to right, first
    nonzero row wins.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def primitive_integer_row(row: Sequence[Fraction]) -> List[int]:
    """Scale a rational row to coprime integers with positive leading entry."""
    row = [Fraction(x) for x in row]
    denom = 1
    for x in row:
        if x != 0:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        g = _gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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
