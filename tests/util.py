"""Shared helpers for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from leafavg import EXACT, Polynomial, monomial_basis


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
