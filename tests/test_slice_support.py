"""Exact slices live on the monomials their rows touch.

An exact slice ``B_d`` is row reduced, orthogonalized and paired only over its
support.  These tests check it against references over every monomial of the
degree: the slice itself (``util.dense_slice``), the rank cover and the
remainders when a product leaves the support (``util.gram_schmidt_residuals``),
and the projection of parts with terms off the support (the per-element
pullback sum and the Gaussian-integer torus expansion).  A monomial off the
support averages to 0 (the Fischer-pairing argument in
``basic_ring.basic_projection``), so the projection drops those terms, and a part
with none on the support averages to 0 with no Gram matrix built.
"""

import dataclasses
import warnings
from pathlib import Path

import pytest

from leafavg import (
    DegreeCapWarning,
    GenerationGap,
    Polynomial,
    TorusModel,
    basic_subspace,
    discover_generators,
    monomial_basis,
    parse_polynomial,
    verify_generation,
)
from leafavg import basic_ring
from leafavg.averaging import generator_products
from leafavg.cli import _CONFIG_DIR, load_config

from util import (_gaussian_fraction_reynolds, _reference_average, dense_slice,
                  gram_schmidt_residuals)

SCALE = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
CASES = {
    **{name: (_CONFIG_DIR / f"{name}.json", None) for name in ("b2", "b3", "c4", "circle12", "hopf", "t2_full")},
    "hopf_cap8": (SCALE / "hopf_cap8.json", 8),
    "b4_cap8": (SCALE / "b4_cap8.json", 8),
}
TORUS_WEIGHTS = [[1, -2], [-3, 1]]


def _model(name):
    path, cap = CASES[name]
    config = load_config(path)
    return config.build_model(), cap or config.params["D"]


def _parity_classes(basis):
    return {tuple(x & 1 for x in e) for e in basis.monomials}


@pytest.mark.parametrize("name", sorted(CASES))
def test_slices_equal_the_dense_reference(name):
    model, cap = _model(name)
    for d in range(1, cap + 1):
        basis = basic_subspace(model, d)
        rank, polys = dense_slice(model, d)
        assert basis.rank == rank, (name, d)
        assert basis.polynomials() == polys, (name, d)
        # the support: a graded-lex subsequence of the degree's monomials,
        # every column of which some echelon row touches
        support = set(basis.monomials)
        assert list(basis.monomials) == [e for e in monomial_basis(model.ambient_dim, d) if e in support]
        assert support == {e for row in basis.echelon for e, x in zip(basis.monomials, row) if x}


def _b3_with(first_text):
    model, cap = _model("b3")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(model, cap)
    polys = (parse_polynomial(first_text, 3),) + gens.generators[1:]
    return model, cap, dataclasses.replace(gens, generators=polys, products=((), {}))


@pytest.mark.parametrize("first_text", ["x1^2", "x1^2 + x2^2 + x3^2 + x1*x2"])
def test_a_product_off_the_support_is_never_dropped(first_text):
    # x1^2 in place of r^2; and r^2 + x1*x2, whose odd term lies off the
    # support of B_2: read over the support alone, it would be r^2 and cover
    model, cap, gens = _b3_with(first_text)
    basis = basic_subspace(model, 2)
    products = [p for _, p in generator_products(list(gens.generators), 2)]
    assert not basic_ring._covers(basis, products)
    with pytest.raises(GenerationGap) as err:
        verify_generation(model, gens, cap)
    residuals = err.value.report.max_residual_by_degree
    assert residuals == gram_schmidt_residuals(model, gens.generators, cap)
    assert residuals[2] > 0


PARTS = {
    # each mixes terms on the support, terms in a parity class the support
    # misses, and constants or other degrees
    "b3": ["x1^3*x2 + x1^2*x2^2 - 2*x3^4 + x1*x2*x3 + 5", "x1*x2^3*x3^2 + 1/3*x2^6 - x1^5*x3"],
    "b4_cap8": ["x1^3*x2^3*x3 + x1^2*x2^2*x3^2*x4 + x4^6 - x1*x2 + x2^2",
                "x1^4*x2^3*x3 + x1^2*x2^2*x3^2*x4^2 + x1^8 - 3/7*x1*x2*x3*x4"],
    # x1^3*x2 is in a class B_4 touches (through x1*x2*x3^2) but not on its support
    "hopf_cap8": ["x1^3*x2 + x1^2*x3^2 - x1*x2*x4^2 + x1*x3 + 2", "x1^5*x3 + x1^4*x2*x4 - x1^3*x2^3 + x3*x4"],
}


@pytest.mark.parametrize("name", sorted(PARTS))
def test_projection_of_parts_off_the_support_equals_the_reference(name):
    model, _ = _model(name)
    reference = _gaussian_fraction_reynolds if isinstance(model, TorusModel) else _reference_average
    for text in PARTS[name]:
        f = parse_polynomial(text, model.ambient_dim)
        assert any(e not in basic_subspace(model, sum(e)).monomials for e in f.terms if sum(e))
        average = model.reynolds(f)
        assert average == reference(model, f)
        # float input: the same terms in the same order
        floats = basic_ring.basic_projection(model, f.to_float())
        assert list(floats.terms.items()) == list(average.to_float().terms.items())
    if name == "hopf_cap8":
        basis = basic_subspace(model, 4)
        assert (3, 1, 0, 0) not in basis.monomials and (1, 1, 0, 0) in _parity_classes(basis)  # x1^3*x2


def test_torus_projection_of_mixed_parity_equals_the_gaussian_reference():
    model = TorusModel(TORUS_WEIGHTS, n_fix=1)
    for text in ["x1^3*x2^3*x3^3*x4^3*x5^3", "x1^2*x3^2*x5^11 + x1*x3^3*x5^11 + x2^15 - x5^15",
                 "x1^2*x2*x5 + x1*x2*x5^2 + x3^2*x5^2 - x4^4 + 3", "x1^3*x2^3*x3^3*x4^3*x5^3 + x5^15"]:
        f = parse_polynomial(text, 5)
        assert model.reynolds(f) == _gaussian_fraction_reynolds(model, f)
    # the degree-15 slice lies in one parity class, which x1^3...x5^3 misses
    basis = basic_subspace(model, 15)
    classes = _parity_classes(basis)
    assert len(classes) == 1 and (1, 1, 1, 1, 1) not in classes


def _count_builds(monkeypatch):
    built = []

    class CountingGram(basic_ring.MomentGram):
        def __init__(self, ambient_dim, monomials):
            super().__init__(ambient_dim, monomials)
            built.append(("gram", len(self.monomials)))

    init = basic_ring._ExactSpan.__init__

    def counting_init(self, gram, polys=()):
        init(self, gram, polys)
        built.append(("span", len(gram.monomials)))

    monkeypatch.setattr(basic_ring, "MomentGram", CountingGram)
    monkeypatch.setattr(basic_ring._ExactSpan, "__init__", counting_init)
    return built


def test_parts_in_absent_classes_build_no_gram_and_repeats_no_span(monkeypatch):
    built = _count_builds(monkeypatch)
    torus = TorusModel(TORUS_WEIGHTS, n_fix=1)
    assert torus.reynolds(parse_polynomial("x1^3*x2^3*x3^3*x4^3*x5^3", 5)).is_zero
    b4 = load_config(SCALE / "b4_cap8.json").build_model()  # a fresh slice cache
    assert b4.reynolds(parse_polynomial("x1^3*x2^3*x3^3*x4^3", 4)).is_zero
    assert built == []
    # a part with terms off the support reads the span once, then never again
    hopf = load_config(SCALE / "hopf_cap8.json").build_model()
    for model, text in ((hopf, "x1^3*x2 + x1^2*x3^2 + x1*x2"), (torus, "x1^2*x3^2*x5^11 + x1*x3^3*x5^11")):
        f = parse_polynomial(text, model.ambient_dim)
        first = model.reynolds(f)
        count = len(built)
        assert count and model.reynolds(f) == first
        assert len(built) == count


@pytest.mark.parametrize("name", ["b3", "b4_cap8", "hopf_cap8", "torus"])
def test_monomials_off_the_support_average_to_zero(name):
    # every monomial of degree up to 4 that the slice's rows do not touch,
    # hopf_cap8's x1^3*x2 among them, averages to 0 by the reference
    model = TorusModel(TORUS_WEIGHTS, n_fix=1) if name == "torus" else _model(name)[0]
    reference = _gaussian_fraction_reynolds if isinstance(model, TorusModel) else _reference_average
    off = [e for d in range(1, 5) for e in monomial_basis(model.ambient_dim, d)
           if e not in basic_subspace(model, d).monomials]
    assert off and (name != "hopf_cap8" or (3, 1, 0, 0) in off)
    for e in off:
        x = Polynomial.monomial(model.ambient_dim, e)
        assert reference(model, x).is_zero and model.reynolds(x).is_zero, e
