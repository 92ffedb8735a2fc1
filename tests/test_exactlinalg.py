from fractions import Fraction

from leafavg.exactlinalg import (
    integer_left_kernel,
    primitive_integer_row,
    rref,
)


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
