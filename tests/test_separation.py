import csv
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leafavg import (
    EXACT,
    DegreeCapWarning,
    DimensionMismatch,
    GeneratorSet,
    InsufficientDistinctPairs,
    Polynomial,
    discover_generators,
    parse_polynomial,
    quotient_image_export,
    rho_eval,
    separation_test,
)
from leafavg.separation import _IntegerGeneratorMap, rational_sphere_points

from util import exact_polys

def P(text, dim):
    return parse_polynomial(text, dim)


def make_gens(dim, texts):
    polys = tuple(P(t, dim) for t in texts)
    return GeneratorSet(
        ambient_dim=dim, mode=EXACT, generators=polys,
        degrees=tuple(p.homogeneous_degree() for p in polys),
        degree_cap=max(p.homogeneous_degree() for p in polys),
        dims_by_degree={}, provenance={"source": "test"},
    )


@pytest.fixture(scope="module")
def hopf_gens(hopf_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        return discover_generators(hopf_model, 2)


# -- rho evaluation ---------------------------------------------------------------


def test_rho_eval_hopf_basepoint(hopf_gens):
    values = rho_eval(hopf_gens, (1, 0, 0, 0))
    assert tuple(values) == (1, 0, 0, 0)


def test_rho_eval_origin_vanishes(hopf_gens):
    assert all(v == 0 for v in rho_eval(hopf_gens, (0, 0, 0, 0)))


def test_rho_eval_scales_by_generator_degree(circle12_model):
    gens = discover_generators(circle12_model, 4)
    rng = np.random.default_rng(3)
    x = tuple(Fraction(int(v), 8) for v in rng.integers(-16, 17, size=4))
    r = Fraction(5, 3)
    scaled = tuple(r * c for c in x)
    base = rho_eval(gens, x)
    image = rho_eval(gens, scaled)
    for value, scaled_value, degree in zip(base, image, gens.degrees):
        assert scaled_value == r ** degree * value


coordinates = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(exact_polys(dim=3, max_degree=4), min_size=1, max_size=4),
       st.lists(coordinates, min_size=3, max_size=3))
@example([Polynomial.zero(3), Polynomial.constant(3, Fraction(-7, 6))], [0, 0, 0])
@example([parse_polynomial("x1^3 - 1/2 * x2 + 5/3", 3)], [Fraction(1, 6), Fraction(-3, 4), 2])
def test_integer_generator_map_matches_polynomial_eval(polys, point):
    # mixed denominators and int coordinates; non-homogeneous, constant and
    # zero polynomials: the same reduced Fractions as Polynomial.eval
    point = tuple(point)
    expected = tuple(p.eval(point) for p in polys)
    values = _IntegerGeneratorMap(polys)(point)
    assert values == expected
    assert all(type(v) is Fraction for v in values)
    gens = GeneratorSet(ambient_dim=3, mode=EXACT, generators=tuple(polys), degrees=(),
                        degree_cap=0, dims_by_degree={})
    assert rho_eval(gens, point, integer_map=_IntegerGeneratorMap(polys)) == expected


def test_integer_generator_map_leaves_float_points_to_eval(hopf_gens):
    integer_map = _IntegerGeneratorMap(hopf_gens.generators)
    point = (0.6, Fraction(4, 5), 0, 0)
    assert integer_map(point) is None
    assert rho_eval(hopf_gens, point, integer_map=integer_map) == rho_eval(hopf_gens, point)
    with pytest.raises(DimensionMismatch):
        rho_eval(hopf_gens, (1, 0, 0), integer_map=integer_map)


def _fraction_sphere_points(ambient_dim, count, rng, denominator=16):
    """Stereographic points built from ``Fraction(k, q)``: the reference for
    the integer construction in ``rational_sphere_points``."""
    raw = rng.integers(-2 * denominator, 2 * denominator + 1, size=(count, ambient_dim - 1))
    points = []
    for row in raw:
        u = [Fraction(int(v), denominator) for v in row]
        s = sum(x * x for x in u)
        points.append(tuple(2 * x / (s + 1) for x in u) + ((s - 1) / (s + 1),))
    return points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 8), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_rational_sphere_points_match_fraction_construction(dim, count, denominator, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points = rational_sphere_points(dim, count, rng, denominator)
    assert points == _fraction_sphere_points(dim, count, reference_rng, denominator)
    for p in points:
        assert len(p) == dim
        assert all(type(x) is Fraction for x in p)
        assert sum(x * x for x in p) == 1
    # one draw of the same size: the random stream does not move
    assert rng.integers(0, 2 ** 62) == reference_rng.integers(0, 2 ** 62)


# -- separation certificates ---------------------------------------------------------


def test_separation_passes_on_hopf(hopf_model, hopf_gens):
    cert = separation_test(hopf_model, hopf_gens, 300, 1e-9, 101)
    assert cert.verdict == "pass"
    assert cert.max_same_discrepancy == 0.0  # exact generators, exact mates
    assert cert.margin_ratio == float("inf")
    assert cert.num_distinct_pairs == 300


def test_separation_r2_only_fails_with_counterexample(t2_model):
    r2_only = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2"])
    e1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    e3 = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    cert = separation_test(
        t2_model, r2_only, 50, 1e-9, 102, adversarial_pairs=[(e1, e3)]
    )
    assert cert.verdict == "fail"
    first = cert.failures[0]
    assert first["kind"] == "distinct_leaf_collision"
    assert first["point"] == [1.0, 0.0, 0.0, 0.0]
    assert first["other"] == [0.0, 0.0, 1.0, 0.0]
    assert first["rho_distance"] == 0.0


def test_separation_sensitivity_to_dropped_generator(hopf_model, hopf_gens):
    # conjugating both complex coordinates preserves radii and the real part
    # of the cross term but negates the imaginary part: dropping that
    # generator leaves an undetected distinct pair
    rng = np.random.default_rng(5)
    pair = None
    for p in rational_sphere_points(4, 50, rng):
        q = (p[0], -p[1], p[2], -p[3])
        if not hopf_model.same_leaf(p, q, 1e-9):
            pair = (p, q)
            break
    assert pair is not None
    reduced = GeneratorSet(
        ambient_dim=4, mode=EXACT,
        generators=tuple(p for i, p in enumerate(hopf_gens.generators) if i != 2),
        degrees=(2, 2, 2), degree_cap=2, dims_by_degree={}, provenance={},
    )
    bad = separation_test(hopf_model, reduced, 50, 1e-9, 103,
                          adversarial_pairs=[pair])
    assert bad.verdict == "fail"
    good = separation_test(hopf_model, hopf_gens, 50, 1e-9, 103,
                           adversarial_pairs=[pair])
    assert good.verdict == "pass"


B3_GENERATORS = ["x1^2 + x2^2 + x3^2", "x1^4 + x2^4 + x3^4", "x1^6 + x2^6 + x3^6"]


@pytest.mark.parametrize("index", range(3))
def test_separation_sabotaged_generator_fails_same_leaf_b3(b3_model, index):
    # a non-invariant generator breaks the same-leaf side exactly
    good = make_gens(3, B3_GENERATORS)
    assert separation_test(b3_model, good, 60, 1e-9, 108).verdict == "pass"
    texts = list(B3_GENERATORS)
    texts[index] = "x1^2"
    cert = separation_test(b3_model, make_gens(3, texts), 60, 1e-9, 108)
    assert cert.max_same_discrepancy > 0
    assert any(f["kind"] == "same_leaf_discrepancy" for f in cert.failures)
    assert cert.verdict == "fail"


@pytest.mark.parametrize("index", range(4))
def test_separation_sabotaged_generator_fails_same_leaf_hopf(hopf_model, hopf_gens, index):
    sabotaged = list(hopf_gens.generators)
    sabotaged[index] = P("x1^2", 4)
    gens = GeneratorSet(
        ambient_dim=4, mode=EXACT, generators=tuple(sabotaged),
        degrees=hopf_gens.degrees, degree_cap=2, dims_by_degree={}, provenance={},
    )
    cert = separation_test(hopf_model, gens, 60, 1e-9, 109)
    assert cert.max_same_discrepancy > 0
    assert any(f["kind"] == "same_leaf_discrepancy" for f in cert.failures)
    assert cert.verdict == "fail"
    assert separation_test(hopf_model, hopf_gens, 60, 1e-9, 109).verdict == "pass"


def test_separation_isoparametric_with_symmetry(iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"])
    cert = separation_test(iso_g2_model, gens, 200, 1e-9, 104)
    assert cert.verdict == "pass"
    assert cert.num_same_pairs == 200
    assert cert.max_same_discrepancy < 1e-12
    assert cert.margin_ratio > 10


def test_separation_isoparametric_without_symmetry():
    from leafavg import IsoparametricModel
    F = P("x1^2 + x2^2 - x3^2 - x4^2", 4)
    bare = IsoparametricModel(F, 2)
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"])
    cert = separation_test(bare, gens, 100, 1e-9, 105)
    assert cert.num_same_pairs == 0
    assert any("level predicate" in note for note in cert.notes)
    assert cert.verdict == "pass"


def test_separation_insufficient_distinct_pairs(t2_model):
    gens = make_gens(4, ["x1^2 + x2^2"])
    with pytest.raises(InsufficientDistinctPairs):
        separation_test(t2_model, gens, 10, 1e-9, 106, same_leaf_tol=1e6)


def test_certificate_serialization(hopf_model, hopf_gens):
    cert = separation_test(hopf_model, hopf_gens, 50, 1e-9, 107)
    data = cert.to_dict()
    assert data["margin_ratio"] == "inf"
    assert data["verdict"] == "pass"
    assert data["seed"] == 107
    assert data["num_distinct_pairs"] == 50


# -- quotient image export --------------------------------------------------------------


def test_export_hopf_image_relation(tmp_path, hopf_model, hopf_gens):
    path = tmp_path / "image.csv"
    rows = quotient_image_export(hopf_gens, 1000, 3, path, model=hopf_model)
    assert rows == 1000
    with open(path) as handle:
        reader = csv.DictReader(handle)
        count = 0
        for record in reader:
            rho = [float(record[f"rho{i}"]) for i in range(1, 5)]
            # image relations: rho1 + rho4 = 1 on the sphere and
            # rho2^2 + rho3^2 = rho1 * rho4 (the cross-term identity)
            assert abs(rho[0] + rho[3] - 1.0) < 1e-10
            assert abs(rho[1] ** 2 + rho[2] ** 2 - rho[0] * rho[3]) < 1e-10
            count += 1
    assert count == 1000


def test_export_iso_levels_in_range(tmp_path, iso_g2_model):
    gens = make_gens(4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + x2^2 - x3^2 - x4^2"])
    path = tmp_path / "image.csv"
    quotient_image_export(gens, 200, 4, path, model=iso_g2_model)
    with open(path) as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            assert abs(float(record["rho1"]) - 1.0) < 1e-10
            assert -1.0 <= float(record["rho2"]) <= 1.0
            assert abs(float(record["rho2"]) - float(record["level"])) < 1e-12


def test_export_zero_samples_keeps_header(tmp_path, hopf_gens):
    path = tmp_path / "empty.csv"
    rows = quotient_image_export(hopf_gens, 0, 5, path)
    assert rows == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("x1,")


def test_export_deterministic(tmp_path, hopf_gens, hopf_model):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    quotient_image_export(hopf_gens, 100, 11, a, model=hopf_model)
    quotient_image_export(hopf_gens, 100, 11, b, model=hopf_model)
    assert a.read_bytes() == b.read_bytes()
