"""``Polynomial.eval_many`` evaluates in row blocks of ``_EVAL_BLOCK`` and
gives the bits of the unblocked evaluator (``util.unblocked_eval_many``) on
every row, at row counts on both sides of each block edge and for C- and
F-ordered points (a sorted sample cloud is an F-ordered view of a (d, N)
array)."""

import numpy as np
import pytest

from leafavg import FLOAT, Polynomial, monomial_basis, parse_polynomial
from leafavg.polynomials import _EVAL_BLOCK

from util import unblocked_eval_many

B = _EVAL_BLOCK
ROWS = (0, 1, B - 1, B, B + 1, 2 * B + 7)


def _full_quartic():
    # every degree-4 monomial on R^5 (70 terms), with irrational coefficients
    rng = np.random.default_rng(4)
    basis = monomial_basis(5, 4)
    assert len(basis) == 70
    return Polynomial(5, {e: float(c) for e, c in zip(basis, rng.normal(size=len(basis)))}, FLOAT)


POLYS = {
    "quartic_70_terms": _full_quartic(),
    "with_constant": parse_polynomial("3/7 + x1^3 * x5 - 2.5 * x2 * x4^2 + x3", 5, FLOAT),
    "exact_with_constant": parse_polynomial("1/3 - x1^2 + 2/3 * x2 * x3^3", 5),
    "zero": Polynomial.zero(5, FLOAT),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", POLYS)
def test_blocked_eval_many_matches_unblocked(name, rows, order):
    poly = POLYS[name]
    rng = np.random.default_rng(rows)
    points = np.asarray(rng.normal(size=(rows, 5)), order=order)
    assert points.flags.f_contiguous if order == "F" else points.flags.c_contiguous
    got = poly.eval_many(points)
    want = unblocked_eval_many(poly, points)
    assert got.shape == (rows,)
    assert got.tobytes() == want.tobytes()

