"""Signed-permutation groups kept as permutation tables: the closure order
against the integer-matrix reference, and the cycle-type Molien factors
against Faddeev-LeVerrier."""

from fractions import Fraction
from pathlib import Path

import pytest

from leafavg import (
    FLOAT,
    GroupTooLarge,
    NonOrthogonalGenerator,
    group_closure,
    molien_dimensions,
)
from leafavg.basic_ring import _det_identity_minus_tg, _signed_det
from leafavg.cli import _CONFIG_DIR, load_config

from util import integer_matrix_closure

B4_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "b4_cap8.json"
# the signed permutation groups, each closed on (perm, signs) tuples
SIGNED = {
    **{name: lambda name=name: load_config(_CONFIG_DIR / f"{name}.json").build_model()
       for name in ("b2", "b3", "c4")},
    "b4": lambda: load_config(B4_CONFIG).build_model(),
    # plain int entries, with a 3-cycle and a sign on the fixed coordinate
    "int_generators": lambda: group_closure([[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                                             [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]),
}
# F4: B4 and the reflection I - J/2 in (1, 1, 1, 1)
HALF_REFLECTION = [[Fraction(1, 2) if i == j else Fraction(-1, 2) for j in range(4)]
                   for i in range(4)]


@pytest.fixture(scope="module")
def signed_groups():
    return {name: build() for name, build in SIGNED.items()}


@pytest.fixture(scope="module")
def f4():
    b4 = load_config(B4_CONFIG).build_model()
    return group_closure([*b4.generators, HALF_REFLECTION], max_group_size=2000)


@pytest.mark.parametrize("name", sorted(SIGNED))
def test_signed_closure_keeps_the_integer_matrix_order(signed_groups, name):
    model = signed_groups[name]
    assert model.elements == integer_matrix_closure(model.generators)
    assert all(type(x) is Fraction for g in model.elements for row in g for x in row)
    table = model._signed_table()
    assert not table.others and len(table.perms) == model.order
    # row k of the table is element k
    for g, perm, signs in zip(model.elements, table.perms.tolist(), table.signs.tolist()):
        assert [list(row) for row in g] == [[s if j == p else 0 for j in range(len(perm))]
                                          for p, s in zip(perm, signs)]


def test_generic_closure_keeps_the_integer_matrix_order(f4):
    assert f4.order == 1152
    assert f4.elements == integer_matrix_closure(f4.generators)


def test_signed_closure_raises_at_the_same_count():
    generators = load_config(B4_CONFIG).build_model().generators
    with pytest.raises(GroupTooLarge):
        group_closure(generators, max_group_size=383)
    assert group_closure(generators, max_group_size=384).order == 384


def test_non_orthogonal_generator_fails_before_closure():
    # a closure would exceed one element at its first product
    with pytest.raises(NonOrthogonalGenerator):
        group_closure([[[0, 1], [1, 0]], [[1, 1], [0, 1]]], max_group_size=1)


def test_float_signed_matrices_close_on_the_float_path(signed_groups):
    exact = signed_groups["b3"]
    model = group_closure([[[float(x) for x in row] for row in g] for g in exact.generators],
                          mode=FLOAT)
    assert model.mode == FLOAT and model.order == 48
    assert all(type(x) is float for g in model.elements for row in g for x in row)
    assert model.elements == tuple(tuple(tuple(map(float, row)) for row in g)
                                   for g in exact.elements)
    assert len(model._signed_table().others) == 48


@pytest.mark.parametrize("name", sorted(SIGNED))
def test_cycle_type_det_matches_faddeev_leverrier(signed_groups, name):
    model = signed_groups[name]
    table = model._signed_table()
    for g, perm, signs in zip(model.elements, table.perms.tolist(), table.signs.tolist()):
        assert _signed_det(perm, signs) == tuple(_det_identity_minus_tg(g))


def test_f4_molien_mixes_both_paths(f4):
    assert len(f4._signed_table().others) == 768
    # invariants of degrees 2, 6, 8 and 12
    assert molien_dimensions(f4, 12) == [1, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 5]
