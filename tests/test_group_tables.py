"""Signed-permutation groups kept as permutation tables: the closure on
signed column indices against the integer-matrix reference (bundled and
seeded random groups), the orbit sums and Molien factors read per distinct
permutation against per-element references, the cycle-type Molien factors
against Faddeev-LeVerrier, the integer Molien sum against a ``Fraction``
sum, and the element matrices built only when read.  F4 (order 1152, B4 and
a reflection that is not a signed permutation): its basic slices from the
generator equations against Molien, the generation and identity checks, and
the per-element average."""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from leafavg import (
    FLOAT,
    DegreeCapWarning,
    GroupTooLarge,
    NonOrthogonalGenerator,
    discover_generators,
    group_closure,
    molien_dimensions,
    monomial_basis,
    parse_polynomial,
    verify_generation,
    verify_operator_identities,
)
from leafavg import cli, models
from leafavg.models import FiniteGroupModel, _det_identity_minus_tg
from leafavg.cli import _CONFIG_DIR, load_config, main

from util import _reference_average, element_orbit_sum, integer_matrix_closure, signed_det

_det_counts = FiniteGroupModel.det_counts  # the group's own Molien factor counts

B4_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "b4_cap8.json"
# the signed permutation groups, each closed on signed column indices
SIGNED = {
    **{name: lambda name=name: load_config(_CONFIG_DIR / f"{name}.json").build_model()
       for name in ("b2", "b3", "c4")},
    "b4": lambda: load_config(B4_CONFIG).build_model(),
    # plain int entries, with a 3-cycle and a sign on the fixed coordinate
    "int_generators": lambda: group_closure([[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                                             [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]),
    # C4 wr C2 (order 32): a quarter turn of the (x1, x2) plane and the swap
    # of the two planes; its 8 permutations come with 4 different sign sets
    "mixed_signs": lambda: group_closure([[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                                          [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]]),
}
# the degree cap of each group's orbit-sum check: its config's D, else 5
CAPS = {"b2": 4, "b3": 6, "c4": 4, "b4": 8, "int_generators": 5, "mixed_signs": 5}
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


def _random_signed_groups(seed, count):
    """``count`` groups on R^2 to R^6, each from two or three seeded random
    signed permutations (every sign -1 in about one in six), of order 2 to
    512: a draw outside that is drawn again."""
    rng, groups = random.Random(seed), []
    while len(groups) < count:
        n, generators = 2 + len(groups) % 5, []
        for _ in range(rng.randint(2, 3)):
            perm = rng.sample(range(n), n)
            signs = [-1] * n if rng.random() < 1 / 6 else [rng.choice((1, -1)) for _ in range(n)]
            generators.append([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        try:
            model = group_closure(generators)
        except GroupTooLarge:
            continue
        if model.order > 1:
            groups.append(model)
    return groups


@pytest.mark.parametrize("seed", range(3))
def test_random_signed_closures_keep_the_integer_matrix_order(seed):
    for model in _random_signed_groups(seed, 10):
        assert model.elements == integer_matrix_closure(model.generators)
        table = model._signed_table()
        assert not table.others and len(table.perms) == model.order
        with pytest.raises(GroupTooLarge):
            group_closure(model.generators, max_group_size=model.order - 1)


def test_signed_generators_skip_the_orthogonality_products(monkeypatch):
    calls = []
    check = models._is_orthogonal
    monkeypatch.setattr(models, "_is_orthogonal", lambda *args: calls.append(1) or check(*args))
    generators = load_config(B4_CONFIG).build_model().generators
    assert group_closure(generators).order == 384 and calls == []
    # F4: only the reflection I - J/2 is checked
    assert group_closure([*generators, HALF_REFLECTION], max_group_size=2000).order == 1152
    assert calls == [1]


def test_generic_closure_keeps_the_integer_matrix_order(f4):
    assert f4.order == 1152
    assert f4.elements == integer_matrix_closure(f4.generators)


def test_signed_closure_raises_at_the_same_count():
    generators = load_config(B4_CONFIG).build_model().generators
    with pytest.raises(GroupTooLarge):
        group_closure(generators, max_group_size=383)
    assert group_closure(generators, max_group_size=384).order == 384


def test_non_orthogonal_generator_fails_before_closure():
    # a closure would exceed one element at its first product; the second
    # and third have one nonzero entry per row, not +-1 or in one column
    for generator in [[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[1, 0], [1, 0]]]:
        with pytest.raises(NonOrthogonalGenerator):
            group_closure([[[0, 1], [1, 0]], generator], max_group_size=1)


def test_float_signed_matrices_close_on_the_float_path(signed_groups):
    exact = signed_groups["b3"]
    model = group_closure([[[float(x) for x in row] for row in g] for g in exact.generators])
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
        assert signed_det(perm, signs) == tuple(_det_identity_minus_tg(g))


@pytest.mark.parametrize("name", sorted(SIGNED))
def test_orbit_sums_per_permutation_match_the_per_element_sums(signed_groups, name):
    """Same counts, same key order and the same zero-count keys as one
    element at a time, at every degree up to the group's cap."""
    model = signed_groups[name]
    zeros = 0
    for degree in range(CAPS[name] + 1):
        for expo in monomial_basis(model.ambient_dim, degree):
            counts = model._signed_orbit_sum(expo)
            assert list(counts.items()) == list(element_orbit_sum(model, expo).items())
            zeros += list(counts.values()).count(0)
    assert zeros  # some orbit sum keeps an image whose signs cancel


def test_mixed_signs_group_has_permutations_with_different_sign_sets(signed_groups):
    pullbacks = signed_groups["mixed_signs"]._signed_table().pullbacks
    assert len({frozenset(masks) for _, masks in pullbacks}) == 4
    assert len(pullbacks) == 8 and signed_groups["mixed_signs"].order == 32


@pytest.mark.parametrize("name", sorted(SIGNED))
def test_molien_factor_counts_match_the_per_element_dets(signed_groups, name):
    model = signed_groups[name]
    table = model._signed_table()
    assert _det_counts(model) == Counter(map(signed_det, table.perms.tolist(),
                                             table.signs.tolist()))


@pytest.mark.parametrize("name", sorted(SIGNED))
def test_integer_molien_sum_matches_the_fraction_sum(signed_groups, name):
    # (1/|G|) sum_g 1/det(I - t g) over the elements one at a time, each
    # series inverted in Fractions
    model, cap = signed_groups[name], CAPS[name]
    table, total = model._signed_table(), [Fraction(0)] * (cap + 1)
    for perm, signs in zip(table.perms.tolist(), table.signs.tolist()):
        det, inverse = signed_det(perm, signs), [Fraction(1)]
        for k in range(1, cap + 1):
            inverse.append(-sum(det[j] * inverse[k - j] for j in range(1, min(k, len(det) - 1) + 1)))
        total = [t + c for t, c in zip(total, inverse)]
    assert molien_dimensions(model, cap) == [t / model.order for t in total]


def test_generators_task_leaves_the_element_matrices_unbuilt(tmp_path):
    config = load_config(B4_CONFIG)
    model = config.build_model()
    assert cli.task_generators(config, model, config.params["seed"], tmp_path) == 0
    assert "elements" not in vars(model)
    assert model.elements == integer_matrix_closure(model.generators)
    # an unnamed closure's default name, its order and its table read only the keys
    unnamed = group_closure(model.generators)
    assert unnamed.name == "finite_group(dim=4, order=384)" and unnamed.order == 384
    assert not unnamed._signed_table().others and "elements" not in vars(unnamed)


def test_f4_molien_mixes_both_paths(f4):
    assert len(f4._signed_table().others) == 768
    # invariants of degrees 2, 6, 8 and 12
    assert molien_dimensions(f4, 12) == [1, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 5]


# -- F4: slices from the generator equations --------------------------------------


@pytest.fixture(scope="module")
def f4_discovery(f4):
    """F4's generators at cap 12 on a new model (no slice kept yet), and the
    seconds their discovery took."""
    model = group_closure(f4.generators, max_group_size=2000)
    start = time.perf_counter()
    with pytest.warns(DegreeCapWarning):  # the degree-12 invariant comes at the cap
        gens = discover_generators(model, 12)
    return model, gens, time.perf_counter() - start


def test_f4_generators_match_molien_within_10_s(f4_discovery):
    model, gens, seconds = f4_discovery
    assert seconds < 10
    assert gens.degrees == (2, 6, 8, 12)
    assert [gens.dims_by_degree[d] for d in range(1, 13)] == molien_dimensions(model, 12)[1:]


def test_f4_generation_has_no_gap(f4_discovery):
    model, gens, _ = f4_discovery
    report = verify_generation(model, gens, 12)
    assert report.gaps() == [] and report.max_residual == 0.0


def test_f4_operator_identities_hold_exactly(f4):
    f = parse_polynomial("x1^3 * x2 - 2/3 * x2^2 * x3 * x4 + 5 * x4^4", 4)
    g = parse_polynomial("x1^2 - 3 * x3 * x4", 4)
    report = verify_operator_identities(f4, f, g)
    assert report.passed and report.tolerance == 0
    assert all(v == 0.0 for v in report.residuals.values())


@pytest.mark.parametrize("text", ["x1^4 - 2/3 * x1 * x2 * x3^2 + 5 * x2 * x4^3",
                                  "x1^3 * x2 + 1/7 * x3^2 - x1 * x4 + 2"])
def test_f4_reynolds_matches_sum_of_pullbacks(f4, text):
    f = parse_polynomial(text, 4)
    assert f4.reynolds(f) == _reference_average(f4, f)


@pytest.mark.parametrize("sabotage", [False, True])
def test_f4_molien_mismatch_without_generator_equations_exits_2(tmp_path, monkeypatch, sabotage):
    """The Molien gate of ``generators`` on F4: with the generator equations
    skipped (every combination of B4's orbit sums kept) dim B_4 reads 2
    against Molien's 1, and the run fails."""
    data = json.loads(B4_CONFIG.read_text())
    data["model"]["generators"].append([str(x) for row in HALF_REFLECTION for x in row])
    data["model"]["max_group_size"] = 2000
    data["params"]["D"] = 4
    config = tmp_path / "f4.json"
    config.write_text(json.dumps(data))
    if sabotage:
        monkeypatch.setattr(models, "integer_left_kernel",
                            lambda rows: [[int(i == j) for j in range(len(rows))]
                                          for i in range(len(rows))])
    out = tmp_path / "out"
    assert main(["generators", "--config", str(config), "--out", str(out)]) == (2 if sabotage else 0)
    payload = json.loads((out / "generators.json").read_text())
    assert payload["molien_check"] == {"dims": [1, 0, 1, 0, 1], "match": not sabotage}
    assert payload["dims_by_degree"]["4"] == (2 if sabotage else 1)
