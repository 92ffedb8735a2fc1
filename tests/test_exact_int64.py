"""Exact separation arithmetic in int64 where a magnitude bound proves it exact.

The generator evaluator picks int64 or Python ints per generator, and
``rational_sphere_batch`` and the exact torus mates per batch, from a bound
computed before any arithmetic.  These tests pin the bounds at their edges:
on either side the results equal ``Polynomial.eval`` and the Python-int
references, and every ``PointBatch`` still holds Python ints.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from leafavg import DegreeCapWarning, parse_polynomial
from leafavg import separation
from leafavg.cli import _CONFIG_DIR, _generators_for_task, load_config
from leafavg.models import PointBatch
from leafavg.separation import _IntegerGeneratorMap, rational_sphere_batch

from util import object_sphere_batch, object_torus_mates


def _object_values(monkeypatch, integer_map, batch):
    """The evaluator's floats with every batch in Python ints."""
    with monkeypatch.context() as patch:
        patch.setattr(separation, "_int_dtype", lambda bound, limit=2 ** 63: object)
        return integer_map.values(batch)


def _dtypes(polys, batch):
    """The dtype the evaluator works in on ``batch``, per generator."""
    totals, dens = _IntegerGeneratorMap(polys)._quotients(batch)
    assert [t.dtype for t in totals] == [d.dtype for d in dens]
    return [t.dtype for t in totals]


def _check_values(monkeypatch, polys, batch, dtypes=None):
    """The evaluator takes ``dtypes`` (when given, one per generator) on
    ``batch``, and the ``.hex()`` of each of its floats equals that of
    ``Polynomial.eval``'s, and each float the Python-int path's."""
    integer_map = _IntegerGeneratorMap(polys)
    assert dtypes is None or _dtypes(polys, batch) == [np.dtype(d) for d in dtypes]
    got = integer_map.values(batch)
    expected = [[float(p.eval(point)).hex() for p in polys] for point in batch.points()]
    assert [[x.hex() for x in row] for row in got.tolist()] == expected
    assert np.array_equal(got, _object_values(monkeypatch, integer_map, batch))


def _python_ints(batch):
    return (batch.nums.dtype == object and batch.dens.dtype == object
            and all(type(x) is int for x in [*batch.nums.flat, *batch.dens.flat]))


def _same_batch(got, expected):
    return (_python_ints(got) and got.nums.shape == expected.nums.shape
            and got.nums.tolist() == expected.nums.tolist()
            and got.dens.tolist() == expected.dens.tolist())


# -- the generator evaluator: int64 while max(sum |k_e|, L) m^D < 2^53 ----------------


# (text, max(sum |k_e|, L)): the first has all terms of one sign, so its
# numerator reaches sum |k_e| m^D; the second's denominator 3 m^2 is the
# largest integer; the third mixes degrees, signs and cofactor powers of c
EDGE_GENERATORS = [
    ("x1^2 + x2^2 + x3^2 + x4^2", 4),
    ("1/3*x1*x2 + 1/3*x3*x4", 3),
    ("2*x1^2 - 3*x2*x3 + x4 - 5", 11),
]


def _edge_batch(m):
    """Points of magnitude ``m`` over the denominator ``m``, numerators at
    or next to ``+-m``: the largest numerators the bound allows."""
    rows = [[m, m, m, m - 1], [m, -m, m, 1 - m], [m, m, m, m], [-m, 1 - m, m - 1, m],
            [m - 1, m, m - 1, m], [1, 2, 3, m]]
    return PointBatch(np.array(rows, dtype=object), np.array([m] * len(rows), dtype=object))


@pytest.mark.parametrize("text,scale", EDGE_GENERATORS)
def test_evaluator_just_below_the_bound_runs_in_int64(monkeypatch, text, scale):
    f = parse_polynomial(text, 4)
    m = math.isqrt((2 ** 53 - 1) // scale)
    assert scale * m ** 2 < 2 ** 53 <= scale * (m + 1) ** 2
    _check_values(monkeypatch, [f], _edge_batch(m), [np.int64])


@pytest.mark.parametrize("text,scale", EDGE_GENERATORS)
def test_evaluator_just_above_the_bound_runs_in_python_ints(monkeypatch, text, scale):
    # two past the edge some numerators exceed 2^53 and are odd, where
    # converting before dividing would round twice
    f = parse_polynomial(text, 4)
    m = math.isqrt((2 ** 53 - 1) // scale) + 2
    _check_values(monkeypatch, [f], _edge_batch(m), [object])


def test_evaluator_bound_is_per_generator(monkeypatch):
    # one generator past its edge runs in Python ints, the next one, still
    # below its own edge, in int64 on the same batch
    polys = [parse_polynomial(text, 4) for text, _ in EDGE_GENERATORS[:2]]
    m = math.isqrt((2 ** 53 - 1) // 4) + 2
    _check_values(monkeypatch, polys[1:], _edge_batch(m), [np.int64])
    _check_values(monkeypatch, polys, _edge_batch(m), [object, np.int64])
    _check_values(monkeypatch, polys[::-1], _edge_batch(m), [np.int64, object])


def test_evaluator_far_past_the_bound(monkeypatch):
    # denominators near 3^40 overflow int64 itself
    polys = [parse_polynomial(text, 4) for text, _ in EDGE_GENERATORS]
    rng = np.random.default_rng(4)
    points = [tuple(Fraction(int(a), 3 ** 40 + i) for a in rng.integers(-10 ** 9, 10 ** 9, 4))
              for i in range(1, 9)]
    _check_values(monkeypatch, polys, PointBatch.of(points), [object] * 3)


# the dtype the evaluator takes for each generator on the first draws of
# separation_test at each bundled config's seed: the sphere points, then their
# leaf mates; b3's sextic alone is past its bound
I64 = np.int64
CONFIG_PATHS = {
    "b2": ([I64] * 2, [I64] * 2),
    "c4": ([I64] * 3, [I64] * 3),
    "hopf": ([I64] * 4, [I64] * 4),
    "b3": ([I64, I64, object], [I64, I64, object]),
    "t2_full": ([I64] * 2, [object] * 2),
    "circle12": ([I64] * 4, [object] * 4),
}


@pytest.mark.parametrize("name", sorted(CONFIG_PATHS))
def test_evaluator_on_config_batches(monkeypatch, name):
    config = load_config(_CONFIG_DIR / f"{name}.json")
    model = config.build_model()
    seed = config.params["seed"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        gens = _generators_for_task(config, model, seed)
    rng = np.random.default_rng(seed)
    points = rational_sphere_batch(model.ambient_dim, config.params["num_pairs"], rng)
    mates = model.leaf_mates(points, rng)
    polys = list(gens.generators)
    for batch, dtypes in zip((points, mates), CONFIG_PATHS[name]):
        assert _dtypes(polys, batch) == [np.dtype(d) for d in dtypes]
        _check_values(monkeypatch, polys, batch[:40])


@pytest.mark.parametrize("nums,magnitude,fits", [
    ([[2 ** 63 - 1, -5]], 2 ** 63 - 1, True),
    ([[-2 ** 63, 7]], 2 ** 63, True),  # in int64, whose abs would wrap
    ([[2 ** 63, 7]], 2 ** 63, False),
    ([[3, -2 ** 70]], 2 ** 70, False),
    (np.zeros((0, 2), dtype=int), 0, True),
])
def test_magnitude_reads_int64_when_every_entry_fits(nums, magnitude, fits):
    batch = PointBatch(np.array(nums, dtype=object).reshape(-1, 2),
                       np.array([11] * len(nums), dtype=object))
    got, (ints, dens) = batch.magnitude()
    assert got == magnitude and type(got) is int
    assert (ints.dtype == dens.dtype == np.int64) == fits
    assert ints.tolist() == batch.nums.tolist() and dens.tolist() == batch.dens.tolist()


# -- exact draws: int64 while the bound is below 2^63, Python ints out ------------


def _sphere_edge(ambient_dim):
    """The largest denominator ``q`` with ``(4d - 3) q^2 < 2^63``."""
    return math.isqrt((2 ** 63 - 1) // (4 * ambient_dim - 3))


@pytest.mark.parametrize("name", ["hopf", "t2_full", "circle12"])
def test_sphere_batch_matches_python_int_reference(name, monkeypatch):
    dim = load_config(_CONFIG_DIR / f"{name}.json").build_model().ambient_dim
    edge = _sphere_edge(dim)
    for q in (16, edge, edge + 1, 2 ** 40):
        monkeypatch.setattr(separation, "SPHERE_DENOMINATOR", q)
        got = rational_sphere_batch(dim, 300, np.random.default_rng(q))
        assert _same_batch(got, object_sphere_batch(dim, 300, np.random.default_rng(q), q))
        assert all(sum(x * x for x in row) == den * den
                   for row, den in zip(got.nums.tolist(), got.dens.tolist()))


def test_sphere_batch_at_the_edge_reaches_the_bound(monkeypatch):
    # the largest draws put S + q^2 at the bound itself, just below 2^63

    class Corner:
        def integers(self, low, high, size):
            return np.full(size, high - 1)

    q = _sphere_edge(4)
    monkeypatch.setattr(separation, "SPHERE_DENOMINATOR", q)
    got = rational_sphere_batch(4, 2, Corner())
    assert _same_batch(got, object_sphere_batch(4, 2, Corner(), q))
    assert got.dens.tolist() == [13 * q * q] * 2 and 13 * q * q < 2 ** 63


def _mates_edge(model):
    """The largest magnitude ``m`` with ``2 m 288^(sum_t top_t) < 2^63``."""
    tops = sum(max(abs(row[t]) for row in model.weight_matrix) for t in range(model.torus_rank))
    return (2 ** 63 - 1) // (2 * 288 ** tops)


@pytest.mark.parametrize("name", ["hopf", "t2_full", "circle12"])
def test_torus_mates_match_python_int_reference(name):
    config = load_config(_CONFIG_DIR / f"{name}.json")
    model, seed = config.build_model(), config.params["seed"]
    m = _mates_edge(model)
    rng = np.random.default_rng(seed)
    near_3_40 = PointBatch.of(
        [tuple(Fraction(int(a), 3 ** 40 + i) for a in rng.integers(-10 ** 9, 10 ** 9, 4))
         for i in range(1, 40)])
    edge = [PointBatch(np.array([[m, m, -m, m - 1], [1 - m, m, m, -m]], dtype=object),
                       np.array([m, m + k], dtype=object)) for k in (0, 1)]
    for batch in (rational_sphere_batch(4, 300, rng), near_3_40, *edge):
        got = model.leaf_mates(batch, np.random.default_rng(seed))
        assert _same_batch(got, object_torus_mates(model, batch, np.random.default_rng(seed)))
