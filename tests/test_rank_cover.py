"""The rank cover of exact discovery and verification, and the lazy slice span.

A degree whose slice lies in the span of the generator products is closed by
integer rank alone; every other degree, and every reading of a slice's span,
runs sphere-orthogonal Gram-Schmidt.  Both must give what orthogonalizing
every degree gives (``util.gram_schmidt_discovery``).
"""

import dataclasses
import warnings
from pathlib import Path

import pytest

from leafavg import (
    DegreeCapWarning,
    GenerationGap,
    GeneratorSet,
    TorusModel,
    basic_subspace,
    discover_generators,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    verify_generation,
)
from leafavg import basic_ring
from leafavg.averaging import generator_products
from leafavg.cli import _CONFIG_DIR, load_config
from leafavg.exactlinalg import _integer_rref, primitive_integer_row

from util import gram_schmidt_discovery, gram_schmidt_residuals

SCALE = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
CASES = {
    **{name: (_CONFIG_DIR / f"{name}.json", None) for name in ("b2", "b3", "c4", "circle12", "hopf", "t2_full")},
    "hopf_cap8": (SCALE / "hopf_cap8.json", 8),
    "b4_cap8": (SCALE / "b4_cap8.json", 8),
}


def _model_and_cap(name):
    path, cap = CASES[name]
    config = load_config(path)
    return config.build_model(), cap or config.params["D"]


def _residuals(model, gens, cap):
    try:
        return verify_generation(model, gens, cap).max_residual_by_degree
    except GenerationGap as err:
        return err.report.max_residual_by_degree


@pytest.mark.parametrize("name", sorted(CASES))
def test_rank_cover_matches_gram_schmidt_at_every_degree(name):
    model, cap = _model_and_cap(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(model, cap)
    ref_gens, ref_degrees, ref_dims = gram_schmidt_discovery(model, cap)
    assert [format_polynomial(p) for p in gens.generators] == [format_polynomial(p) for p in ref_gens]
    assert gens.generators == tuple(ref_gens)
    assert list(gens.degrees) == ref_degrees
    assert gens.dims_by_degree == ref_dims
    # the full set, and the set without its last generator, which leaves gaps
    for subset in (gens.generators, gens.generators[:-1]):
        truncated = GeneratorSet(model.ambient_dim, gens.mode, subset, gens.degrees[:len(subset)],
                                 cap, gens.dims_by_degree)
        assert _residuals(model, truncated, cap) == gram_schmidt_residuals(model, subset, cap)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_reuses_the_products_discovery_built(monkeypatch, name):
    model, cap = _model_and_cap(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = discover_generators(model, cap)
    built_for, built = gens.products
    assert built_for is gens.generators and built
    # each degree's list is that of generator_products on the whole set, term for term
    for d, products in built.items():
        full = [p for _, p in generator_products(list(gens.generators), d)]
        assert [list(p.terms.items()) for p in products] == [list(p.terms.items()) for p in full]
    calls, covers = [], []
    cover = basic_ring._covers
    monkeypatch.setattr(basic_ring, "generator_products",
                        lambda polys, d: calls.append(d) or generator_products(polys, d))
    monkeypatch.setattr(basic_ring, "_covers",
                        lambda basis, products: covers.append(basis.degree) or cover(basis, products))
    report = verify_generation(model, gens, cap)
    # products are built only where discovery met a zero slice; the rank
    # cover still runs at every degree
    assert calls == [d for d in range(1, cap + 1) if d not in built]
    assert covers == list(range(1, cap + 1)) and report.max_residual == 0.0
    # a set with other generators builds its own
    calls.clear()
    other = dataclasses.replace(gens, generators=gens.generators[:-1], degrees=gens.degrees[:-1])
    with pytest.raises(GenerationGap):
        verify_generation(model, other, cap)
    assert calls == list(range(1, cap + 1))


def test_as_many_independent_products_as_the_dimension_do_not_cover():
    # x1^2 is not basic, and Im(z1 conj z2) = x1 x4 - x2 x3 is missing
    model = load_config(SCALE / "hopf_cap8.json").build_model()
    texts = ["x1^2 + x2^2", "x3^2 + x4^2", "x1*x3 + x2*x4", "x1^2"]
    polys = tuple(parse_polynomial(t, 4) for t in texts)
    gens = GeneratorSet(4, model.mode, polys, (2,) * 4, 4, {})
    basis = basic_subspace(model, 2)
    products = [p for _, p in generator_products(list(polys), 2)]
    rows = [primitive_integer_row([p.coefficient(e) for e in monomial_basis(4, 2)]) for p in products]
    # a test of rank(products) == dim alone would call degree 2 covered
    assert len(_integer_rref(rows)[0]) == basis.rank == 4
    assert not basic_ring._covers(basis, products)
    with pytest.raises(GenerationGap) as err:
        verify_generation(model, gens, 4)
    residuals = err.value.report.max_residual_by_degree
    assert residuals == gram_schmidt_residuals(model, polys, 4)
    assert residuals[2] > 0 and err.value.degrees == [2, 4]


def test_hopf_discovery_orthogonalizes_only_what_it_reads(monkeypatch):
    built = []

    class CountingGram(basic_ring.MomentGram):
        def __init__(self, ambient_dim, monomials):
            super().__init__(ambient_dim, monomials)
            built.append(("gram", max(map(sum, self.monomials))))

    init = basic_ring._ExactSpan.__init__

    def counting_init(self, gram, polys=()):
        init(self, gram, polys)
        built.append(("span", max(map(sum, gram.monomials))))

    monkeypatch.setattr(basic_ring, "MomentGram", CountingGram)
    monkeypatch.setattr(basic_ring._ExactSpan, "__init__", counting_init)
    model = load_config(SCALE / "hopf_cap8.json").build_model()  # a fresh slice cache
    gens = discover_generators(model, 8)
    assert list(gens.degrees) == [2, 2, 2, 2]
    assert not [d for kind, d in built if kind == "gram" and d % 2]
    assert not [d for kind, d in built if kind == "span" and d in (4, 6, 8)]
    verify_generation(model, gens, 8)
    assert not [d for kind, d in built if d != 2]
    # a span is built on first read and kept on the cached slice
    basis = basic_subspace(model, 4)
    assert basis.span is basis.span is basic_subspace(model, 4).span
    assert built.count(("gram", 4)) == 1


def test_projection_onto_a_zero_slice_builds_no_gram(monkeypatch):
    # B_3 of the Hopf circle is 0: its part averages to 0 with no span read
    built = []

    class CountingGram(basic_ring.MomentGram):
        def __init__(self, ambient_dim, monomials):
            super().__init__(ambient_dim, monomials)
            built.append(max(map(sum, self.monomials)))

    monkeypatch.setattr(basic_ring, "MomentGram", CountingGram)
    model = TorusModel([[1], [1]])
    assert basic_subspace(model, 3).rank == 0
    assert model.reynolds(parse_polynomial("x1^3 + x2*x3*x4", 4)).is_zero
    assert built == []
    # a part on a nonzero slice still reads its span
    average = model.reynolds(parse_polynomial("x1^3 + x2*x3*x4 + x1^2 + 7", 4))
    assert average == parse_polynomial("1/2*x1^2 + 1/2*x2^2 + 7", 4)
    assert built == [2]
