import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leafavg.exactlinalg import (
    _integer_rref,
    integer_left_kernel,
    primitive_integer_row,
    rref,
    solve_gram,
)


def test_solve_gram_sets_a_dependent_unknown_to_zero():
    # the Gram matrix of v, 2v and w: the second unknown's pivot vanishes
    F = Fraction
    gram = [[F(1), F(2), F(0)], [F(2), F(4), F(0)], [F(0), F(0), F(3)]]
    assert solve_gram(gram, [F(5), F(10), F(6)]) == [F(5), 0, F(2)]
    assert solve_gram([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0], tol=1e-12) == [1.0, 0.0]
    assert solve_gram([[F(2), F(1)], [F(1), F(2)]], [F(3), F(3)]) == [1, 1]


def test_rref_identity_like():
    rows = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    reduced, pivots = rref(rows)
    assert reduced == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    reduced, pivots = rref(rows)
    assert len(reduced) == 2
    assert pivots == [0, 1]
    assert len(rref(rows)[0]) == 2


def _fraction_rref(rows):
    """Gauss-Jordan elimination in ``Fraction`` arithmetic: the reference for
    the fraction-free elimination in ``rref``."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
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


@st.composite
def rational_matrices(draw):
    """Wide and tall rational matrices with zero, duplicate and proportional
    rows, negative entries and mixed denominators."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    )
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        scale = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))
        rows.insert(draw(st.integers(0, len(rows))), [scale * x for x in source])
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rational_matrices())
@example([])
@example([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
@example([[Fraction(4), Fraction(6)], [Fraction(2), Fraction(3)], [Fraction(-6), Fraction(-9)]])
@example([[Fraction(2, 3), Fraction(1, 5), Fraction(-7, 4), Fraction(0), Fraction(3)]])
def test_rref_matches_fraction_elimination(rows):
    reduced, pivots = rref(rows)
    expected_rows, expected_pivots = _fraction_rref(rows)
    assert pivots == expected_pivots
    assert reduced == expected_rows
    assert all(type(x) is Fraction for row in reduced for x in row)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rational_matrices())
def test_integer_rref_rows_are_primitive(rows):
    # every row the elimination keeps is divided by its content, so its
    # entries are as small as its reduced echelon row allows, and its pivot
    # entry is positive
    ints, pivots = _integer_rref([primitive_integer_row(row) for row in rows])
    assert len(ints) == len(pivots)
    for row, c in zip(ints, pivots):
        assert math.gcd(*row) == 1 and row[c] > 0
        assert [x for i, x in enumerate(row) if i in pivots and i != c] == [0] * (len(pivots) - 1)


def test_primitive_integer_row():
    row = [Fraction(1, 2), Fraction(-3, 4), Fraction(0)]
    assert primitive_integer_row(row) == [2, -3, 0]
    assert primitive_integer_row([Fraction(-2), Fraction(4)]) == [1, -2]


def test_kernel_diagonal_full_rank():
    assert integer_left_kernel([[1, 0], [0, 1]]) == []


def test_kernel_hopf_weights():
    kernel = integer_left_kernel([[1], [1]])
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] + v[1] == 0 and abs(v[0]) == 1


def test_kernel_weighted_circle():
    kernel = integer_left_kernel([[1], [2]])
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] * 1 + v[1] * 2 == 0
    assert sorted(map(abs, v)) == [1, 2]


def test_kernel_is_saturated():
    # left kernel of [[2], [4]] is spanned by (2, -1); a non-saturated
    # algorithm would return a multiple like (4, -2)
    kernel = integer_left_kernel([[2], [4]])
    assert len(kernel) == 1
    v = [abs(x) for x in kernel[0]]
    assert sorted(v) == [1, 2]


def test_kernel_rectangular():
    kernel = integer_left_kernel([[1, 0], [0, 1], [1, 1]])
    assert len(kernel) == 1
    v = kernel[0]
    # v1 * (1,0) + v2 * (0,1) + v3 * (1,1) = 0
    assert v[0] + v[2] == 0 and v[1] + v[2] == 0
