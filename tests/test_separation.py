import csv
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leafavg import (
    EXACT,
    DegreeCapWarning,
    DimensionMismatch,
    FiniteGroupModel,
    GeneratorSet,
    InsufficientDistinctPairs,
    IsoparametricModel,
    OffSphere,
    Polynomial,
    SeparationCertificate,
    TorusModel,
    discover_generators,
    group_closure,
    parse_polynomial,
    quotient_image_export,
    rho_eval,
    separation_test,
)
from leafavg import models, separation
from leafavg.cli import _CONFIG_DIR, _generators_for_task, load_config
from leafavg.exactlinalg import integer_left_kernel
from leafavg.models import LEVEL_TOL, PointBatch, _mat_vec, sample_sphere_many
from leafavg.separation import _IntegerGeneratorMap, rational_sphere_batch, rational_sphere_points

from util import exact_polys, fraction_rotation_mate

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


@pytest.fixture
def set_same_leaf_tol(monkeypatch):
    """A setter of the same-leaf tolerance of every model: both constants
    that ``leaf_pairs`` reads."""
    def set_to(tol):
        monkeypatch.setattr(models, "CLOSED_FORM_LEAF_TOL", tol)
        monkeypatch.setattr(models, "LEVEL_TOL", tol)
    return set_to


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
@example([parse_polynomial("x1^2 + 1/3 * x2^2", 3)], [Fraction(1, 3 ** 400), Fraction(2, 7), 0])
def test_integer_generator_map_matches_polynomial_eval(polys, point):
    # mixed denominators and int coordinates; non-homogeneous, constant and
    # zero polynomials: the same reduced Fractions as Polynomial.eval, and
    # the same floats as converting them (also past the float range of the
    # integers, where the quotient is still one correctly rounded division)
    point = tuple(point)
    expected = tuple(p.eval(point) for p in polys)
    totals, dens = _IntegerGeneratorMap(polys)._quotients(PointBatch.of([point]))
    values = tuple(Fraction(t[0], d[0]) for t, d in zip(totals, dens))
    assert values == expected
    assert all(type(v) is Fraction for v in values)
    floats = _IntegerGeneratorMap(polys).values([point])[0].tolist()
    assert [v.hex() for v in floats] == [float(v).hex() for v in expected]
    gens = GeneratorSet(ambient_dim=3, mode=EXACT, generators=tuple(polys), degrees=(),
                        degree_cap=0, dims_by_degree={})
    assert rho_eval(gens, point) == expected


def test_integer_generator_map_leaves_float_points_to_eval(hopf_gens):
    integer_map = _IntegerGeneratorMap(hopf_gens.generators)
    point = (0.6, Fraction(4, 5), 0, 0)
    assert integer_map.values([point]) is None
    assert rho_eval(hopf_gens, point) == tuple(g.eval(point) for g in hopf_gens.generators)
    with pytest.raises(DimensionMismatch):
        rho_eval(hopf_gens, (1, 0, 0))


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
    with mock.patch.object(separation, "SPHERE_DENOMINATOR", denominator):
        points = rational_sphere_points(dim, count, rng)
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
        if not hopf_model.same_leaf(p, q):
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


def test_separation_insufficient_distinct_pairs(t2_model, set_same_leaf_tol):
    gens = make_gens(4, ["x1^2 + x2^2"])
    set_same_leaf_tol(1e6)
    with pytest.raises(InsufficientDistinctPairs):
        separation_test(t2_model, gens, 10, 1e-9, 106)


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


def test_export_zero_samples_keeps_header(tmp_path, hopf_gens, hopf_model):
    path = tmp_path / "empty.csv"
    rows = quotient_image_export(hopf_gens, 0, 5, path, model=hopf_model)
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


# -- the separation loop against a point-at-a-time reference --------------------------


def _reference_torus_phase_gaps(model, p, q, radii_p, radii_q, floor):
    active = [j for j in range(model.n_planes) if radii_p[j] > floor and radii_q[j] > floor]
    if not active:
        return
    phases = [
        math.atan2(float(q[2 * j + 1]), float(q[2 * j]))
        - math.atan2(float(p[2 * j + 1]), float(p[2 * j]))
        for j in active
    ]
    for vec in integer_left_kernel([model.weight_matrix[j] for j in active]):
        total = sum(v * phi for v, phi in zip(vec, phases))
        yield abs(math.remainder(total, 2.0 * math.pi)), max(1, sum(abs(v) for v in vec))


def _reference_radii(model, p):
    return [math.hypot(float(p[2 * j]), float(p[2 * j + 1])) for j in range(model.n_planes)]


def _reference_torus_same_leaf(model, p, q, tol):
    m = 2 * model.n_planes
    for x, y in zip(p[m:], q[m:]):
        if abs(float(x) - float(y)) > tol:
            return False
    radii_p, radii_q = _reference_radii(model, p), _reference_radii(model, q)
    if any(abs(rp - rq) > tol for rp, rq in zip(radii_p, radii_q)):
        return False
    return all(gap <= tol * weight
               for gap, weight in _reference_torus_phase_gaps(model, p, q, radii_p, radii_q, tol))


def _reference_torus_quotient_distance(model, p, q):
    radii_p, radii_q = _reference_radii(model, p), _reference_radii(model, q)
    m = 2 * model.n_planes
    radial = math.sqrt(
        sum((rp - rq) ** 2 for rp, rq in zip(radii_p, radii_q))
        + sum((float(x) - float(y)) ** 2 for x, y in zip(p[m:], q[m:]))
    )
    # the radius floor of the verdict, which shares its phase-lattice pass
    floor = models.CLOSED_FORM_LEAF_TOL
    phase = max((gap / weight for gap, weight
                 in _reference_torus_phase_gaps(model, p, q, radii_p, radii_q, floor)),
                default=0.0)
    return max(radial, phase)


def _reference_orbit_sq_distances(model, p, q):
    q = [float(x) for x in q]
    table = model._signed_table()
    if table.others:
        images = model.orbit(p)
    else:
        images = (np.array([float(x) for x in p])[table.perms] * table.signs).tolist()
    return [sum((float(x) - y) ** 2 for x, y in zip(image, q)) for image in images]


def _reference_torus_mate(model, p, rng):
    """An exact point's mate composed in ``Fraction`` arithmetic; a float
    point keeps the model's float rotation."""
    if all(isinstance(x, Fraction) for x in p):
        return fraction_rotation_mate(model, p, rng)
    return model.random_leaf_mate(p, rng)


def _reference_level(model, p):
    return float(model.F.eval([float(x) for x in p]))


def _reference_level_gap(model, p, q):
    """``|F(p) - F(q)|`` after a ``**`` sum norm check of both points within
    the level predicate's tolerance."""
    for point in (p, q):
        norm = math.sqrt(sum(float(x) ** 2 for x in point))
        if abs(norm - 1.0) > models.LEVEL_TOL:
            raise OffSphere(f"point norm {norm} is not 1 within {models.LEVEL_TOL}")
    return abs(_reference_level(model, p) - _reference_level(model, q))


def _reference_predicates(model):
    """``(same_leaf, quotient_distance, random_leaf_mate)`` as Python loops:
    ``**`` sums over the orbit and ``_mat_vec`` mates for groups, a fresh
    kernel, ``math.hypot`` radii, repeated float conversions and ``Fraction``
    rotations for tori, and a level difference from ``Polynomial.eval`` per
    pair for isoparametric models, whose mates are their symmetry's."""
    if isinstance(model, FiniteGroupModel):
        return (
            lambda p, q, tol: min(_reference_orbit_sq_distances(model, p, q)) < tol * tol,
            lambda p, q: math.sqrt(min(_reference_orbit_sq_distances(model, p, q))),
            lambda p, rng: _mat_vec(model.elements[int(rng.integers(model.order))], p),
        )
    if isinstance(model, TorusModel):
        return (
            lambda p, q, tol: _reference_torus_same_leaf(model, p, q, tol),
            lambda p, q: _reference_torus_quotient_distance(model, p, q),
            lambda p, rng: _reference_torus_mate(model, p, rng),
        )
    return (
        lambda p, q, tol: _reference_level_gap(model, p, q) < tol,
        lambda p, q: _reference_level_gap(model, p, q),
        _reference_predicates(model.symmetry)[2] if model.symmetry is not None else None,
    )


def _reference_separation_test(model, gens, num_pairs, tol_same, rng_seed, same_leaf_tol=None):
    """The reference certificate's dict and its number of attempts."""
    cert, attempts = _reference_certificate(model, gens, num_pairs, tol_same, rng_seed,
                                            same_leaf_tol)
    return cert.to_dict(), attempts


def _reference_certificate(model, gens, num_pairs, tol_same, rng_seed, same_leaf_tol=None,
                           adversarial_pairs=None):
    """``separation_test`` one candidate at a time: each adversarial pair,
    then two one-point draws per attempt, exact points built from
    ``Fraction``s, and ``Polynomial.eval`` images that are then converted to
    floats.  Returns the certificate and the number of attempts."""
    same_leaf, quotient_distance, random_leaf_mate = _reference_predicates(model)
    rng = np.random.default_rng(rng_seed)
    exact = model.closed_form and model.mode == EXACT and gens.mode == EXACT
    if same_leaf_tol is None:
        same_leaf_tol = 1e-9 if model.closed_form else LEVEL_TOL

    def sample(count):
        if exact:
            return _fraction_sphere_points(model.ambient_dim, count, rng)
        return [tuple(float(x) for x in row)
                for row in sample_sphere_many(count, model.ambient_dim, rng)]

    def distance(p, q):
        a = [g.eval(p) for g in gens.generators]
        b = [g.eval(q) for g in gens.generators]
        return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))

    notes, failures = [], []
    max_same, num_same = 0.0, 0
    if not model.closed_form and model.symmetry is None:
        notes.append("no leaf-transitive symmetry configured; same-leaf pairs skipped "
                     "(same-leaf testing degenerates to the level predicate)")
    else:
        for p in sample(num_pairs):
            mate = random_leaf_mate(p, rng)
            disc = distance(p, mate)
            num_same += 1
            max_same = max(max_same, disc)
            if disc > tol_same:
                failures.append({"kind": "same_leaf_discrepancy", "point": [float(x) for x in p],
                                 "mate": [float(x) for x in mate], "rho_distance": disc})
    distinct = []

    def add_distinct(p, q):
        dist = distance(p, q)
        distinct.append((p, q, dist))
        if dist <= tol_same:
            failures.append({"kind": "distinct_leaf_collision", "point": [float(x) for x in p],
                             "other": [float(x) for x in q], "rho_distance": dist})

    for p, q in adversarial_pairs or []:
        if same_leaf(p, q, same_leaf_tol):
            notes.append("an adversarial pair turned out to lie on one leaf; skipped")
        else:
            add_distinct(p, q)
    if adversarial_pairs:
        notes.append(f"{len(adversarial_pairs)} adversarial pair(s) supplied by the caller")
    attempts, sampled = 0, 0
    while sampled < num_pairs and attempts < 50 * num_pairs:
        attempts += 1
        p = sample(1)[0]
        q = sample(1)[0]
        if same_leaf(p, q, same_leaf_tol):
            continue
        add_distinct(p, q)
        sampled += 1
    if sampled < num_pairs:
        raise InsufficientDistinctPairs(
            f"found only {sampled} distinct-leaf pairs in {attempts} attempts")
    min_distinct = min((dist for _, _, dist in distinct), default=float("inf"))
    margin_by_proxy = {}
    for threshold in (1e-3, 1e-2, 1e-1):
        eligible = [dist for p, q, dist in distinct if quotient_distance(p, q) >= threshold]
        if eligible:
            margin_by_proxy[f">={threshold:g}"] = min(eligible)
    if max_same == 0.0:
        margin = float("inf") if min_distinct > 0 else 0.0
    else:
        margin = min_distinct / max_same
    cert = SeparationCertificate(
        model=model.name, generator_count=len(gens.generators),
        generator_provenance=dict(gens.provenance), num_same_pairs=num_same,
        max_same_discrepancy=max_same, num_distinct_pairs=len(distinct),
        min_distinct_distance=min_distinct, margin_ratio=margin, margin_by_proxy=margin_by_proxy,
        failures=failures, tol_same=tol_same, seed=rng_seed, notes=notes,
    )
    return cert, attempts


BUNDLED_CONFIGS = sorted(path.stem for path in _CONFIG_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def bundled_runs():
    """Model, generator set and seed of every bundled config."""
    runs = {}
    for name in BUNDLED_CONFIGS:
        config = load_config(_CONFIG_DIR / f"{name}.json")
        model = config.build_model()
        seed = config.params["seed"]
        runs[name] = model, _generators_for_task(config, model, seed), seed, config.params
    return runs


@pytest.mark.parametrize("seed_kind", ["config", "three"])
@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_separation_matches_point_at_a_time_reference(bundled_runs, name, seed_kind):
    model, gens, seed, params = bundled_runs[name]
    seed = seed if seed_kind == "config" else 3
    tol_same = params["tol_same"]
    expected, _ = _reference_separation_test(model, gens, 150, tol_same, seed)
    got = separation_test(model, gens, 150, tol_same, seed).to_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_separation_matches_reference_across_batches(bundled_runs, name, set_same_leaf_tol):
    # a loose same-leaf tolerance rejects many candidates, so the distinct
    # pairs come from several batches: one point drawn too many in a batch
    # moves every later pair
    model, gens, seed, params = bundled_runs[name]
    expected, attempts = _reference_separation_test(model, gens, 150, params["tol_same"], seed,
                                                    same_leaf_tol=0.3)
    assert attempts > 150
    set_same_leaf_tol(0.3)
    got = separation_test(model, gens, 150, params["tol_same"], seed)
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)


def _adversarial_pairs(model, rng):
    """Two distinct-leaf pairs with two same-leaf pairs between and after
    them: rational points for closed-form models, floats otherwise."""
    if model.closed_form:
        points = rational_sphere_points(model.ambient_dim, 5, rng)
    else:
        points = [tuple(row) for row in sample_sphere_many(5, model.ambient_dim, rng).tolist()]
    mate = _reference_predicates(model)[2](points[0], rng)
    return [(points[1], points[2]), (points[0], mate), (points[3], points[4]),
            (points[4], points[4])]


@pytest.mark.parametrize("tol_same", [None, 1e9])
@pytest.mark.parametrize("name", ["b3", "hopf", "iso_g2"])
def test_adversarial_pairs_match_reference(bundled_runs, name, tol_same):
    # one leaf_pairs call over the whole list: the notes, distances and
    # failures of a pair-at-a-time loop, in order (under tol_same 1e9 every
    # distinct pair is a collision, so the failures list every distance)
    model, gens, seed, params = bundled_runs[name]
    tol_same = params["tol_same"] if tol_same is None else tol_same
    pairs = _adversarial_pairs(model, np.random.default_rng(21))
    expected, _ = _reference_certificate(model, gens, 20, tol_same, seed, adversarial_pairs=pairs)
    got = separation_test(model, gens, 20, tol_same, seed, adversarial_pairs=pairs)
    assert got.notes[-3:] == ["an adversarial pair turned out to lie on one leaf; skipped"] * 2 + \
        ["4 adversarial pair(s) supplied by the caller"]
    assert got.num_distinct_pairs == 22
    assert json.dumps(got.failures) == json.dumps(expected.failures)
    assert json.dumps(got.to_dict(), sort_keys=True) == \
        json.dumps(expected.to_dict(), sort_keys=True)
    if tol_same == 1e9:
        assert [f["point"] for f in got.failures[:2]] == \
            [[float(x) for x in pairs[i][0]] for i in (0, 2)]
        assert len(got.failures) == 22


def test_adversarial_point_off_the_sphere_raises(bundled_runs):
    model, gens, seed, _ = bundled_runs["iso_g2"]
    pairs = _adversarial_pairs(model, np.random.default_rng(21))
    pairs.insert(2, ((2.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)))
    with pytest.raises(OffSphere, match="point norm 2.0 "):
        separation_test(model, gens, 20, 1e-9, seed, adversarial_pairs=pairs)


def test_separation_gives_up_where_the_reference_does(t2_model, set_same_leaf_tol):
    gens = make_gens(4, ["x1^2 + x2^2"])
    with pytest.raises(InsufficientDistinctPairs) as expected:
        _reference_separation_test(t2_model, gens, 10, 1e-9, 106, same_leaf_tol=0.9)
    set_same_leaf_tol(0.9)
    with pytest.raises(InsufficientDistinctPairs) as got:
        separation_test(t2_model, gens, 10, 1e-9, 106)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("dim", range(2, 13))
def test_one_batch_draws_the_points_of_single_draws(dim):
    # the distinct-pair loop draws its candidates in batches; numpy's
    # generator gives the same rows and leaves the same state either way
    for seed in (0, 1, 2):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = rational_sphere_points(dim, 2 * 7, rng)
        assert batch == [rational_sphere_points(dim, 1, reference)[0] for _ in range(2 * 7)]
        assert rng.bit_generator.state == reference.bit_generator.state
        floats = sample_sphere_many(2 * 7, dim, rng)
        singles = np.vstack([sample_sphere_many(1, dim, reference) for _ in range(2 * 7)])
        assert floats.tobytes() == singles.tobytes()
        assert rng.integers(0, 2 ** 62) == reference.integers(0, 2 ** 62)


# -- exact paths that no bundled config reaches -------------------------------------------

# a reflection with rational entries, outside the signed-permutation table
REFLECTION = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
LOCAL_MODELS = {
    # {I, R}: one element the signed table does not hold
    "mixed_reflection": (lambda: group_closure([REFLECTION]), 2),
    # R and a quarter turn: a dihedral group of order 8 with rational entries
    "rational_dihedral": (lambda: group_closure([REFLECTION, [[0, 1], [-1, 0]]]), 4),
    # fixed coordinates, negative weights and a rank-2 torus
    "torus_signed_fixed": (lambda: TorusModel([[1, -2], [-3, 1]], n_fix=1), 2),
    "torus_12_fixed": (lambda: TorusModel([[1], [2]], n_fix=1), 3),
    # two fixed coordinates: their squares are summed apart from the radii's
    "torus_fixed_pair": (lambda: TorusModel([[1]], n_fix=2), 2),
    # the seventh power of a rotation: mate numerators pass 2^53 and int64
    "torus_17": (lambda: TorusModel([[1], [7]]), 8),
}


@pytest.fixture(scope="module")
def local_runs():
    runs = {}
    for name, (build, cap) in LOCAL_MODELS.items():
        model = build()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegreeCapWarning)
            runs[name] = model, discover_generators(model, cap)
    return runs


def _refusal_or(run):
    """``run()``, or the message of an OffSphere refusal."""
    try:
        return run()
    except OffSphere as error:
        return f"refused: {error}"


def _outcome(run):
    """A certificate's JSON text, or the message of a give-up."""
    try:
        result = run()
    except InsufficientDistinctPairs as error:
        return f"gave up: {error}"
    return json.dumps(result if isinstance(result, dict) else result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("same_leaf_tol", [None, 0.3])
@pytest.mark.parametrize("name", sorted(LOCAL_MODELS))
def test_separation_matches_reference_off_the_bundled_paths(local_runs, name, same_leaf_tol,
                                                           set_same_leaf_tol):
    model, gens = local_runs[name]
    expected = _outcome(lambda: _reference_separation_test(
        model, gens, 120, 1e-9, 7, same_leaf_tol=same_leaf_tol)[0])
    if same_leaf_tol is not None:
        set_same_leaf_tol(same_leaf_tol)
    got = _outcome(lambda: separation_test(model, gens, 120, 1e-9, 7))
    assert got == expected
    if same_leaf_tol is None:
        assert json.loads(got)["verdict"] == "pass"


@pytest.mark.parametrize("weights", [[[1], [7]], [[2], [-9]]])
def test_torus_mates_past_int64_stay_exact(weights):
    # a plane turns by the seventh (ninth) power of a rotation over a
    # denominator up to 288^7 (288^9), so mate numerators (and, for the ninth
    # power, the rotation itself) pass 2^63
    model = TorusModel(weights)
    batch = rational_sphere_batch(4, 200, np.random.default_rng(7))
    mates = model.leaf_mates(batch, np.random.default_rng(8))
    assert max(abs(x) for x in mates.nums.ravel().tolist()) > 2 ** 63
    reference_rng = np.random.default_rng(8)
    expected = [fraction_rotation_mate(model, p, reference_rng) for p in batch.points()]
    assert mates.points() == expected
    assert [[x.hex() for x in row] for row in mates.floats().tolist()] == \
        [[float(x).hex() for x in p] for p in expected]


@pytest.mark.parametrize("weights", [[[1000], [-1001]], [[1024, 1], [3, -1023]]])
def test_torus_mates_at_large_weights_stay_exact(weights):
    # powers past 1,000 are taken by squaring; the reference multiplies one
    # unit of |w| at a time, in Fractions
    model = TorusModel(weights)
    batch = rational_sphere_batch(4, 3, np.random.default_rng(11))
    mates = model.leaf_mates(batch, np.random.default_rng(12))
    reference_rng = np.random.default_rng(12)
    assert mates.points() == [fraction_rotation_mate(model, p, reference_rng) for p in batch.points()]


def test_group_orbit_distances_are_built_in_chunks():
    # one unchunked orbit array of 1,000 pairs under B4 (order 384) would
    # hold 1000 * 384 * 4 floats, 12 MB
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "b4_cap8.json"
    model = load_config(config).build_model()
    batch = rational_sphere_batch(4, 2000, np.random.default_rng(5))
    ps, qs = batch[0::2], batch[1::2]
    model.leaf_pairs(ps[:10], qs[:10])  # the signed table, built once
    tracemalloc.start()
    same, proxy = model.leaf_pairs(ps, qs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    expected = [min(_reference_orbit_sq_distances(model, p, q))
                for p, q in zip(ps.points()[:50], qs.points()[:50])]
    assert proxy[:50].tolist() == [math.sqrt(d) for d in expected]
    assert not same.any()


@pytest.mark.parametrize("name", ["b3", "circle12", "torus_signed_fixed"])
def test_every_sabotaged_pair_matches_reference(bundled_runs, local_runs, name):
    # a non-invariant generator makes every same-leaf pair a failure, so each
    # pair's distance is in the certificate, not only the extremes
    model, gens = local_runs[name] if name in local_runs else bundled_runs[name][:2]
    sabotaged = GeneratorSet(
        ambient_dim=gens.ambient_dim, mode=EXACT,
        generators=gens.generators[1:] + (P("x1^2 - 2/3 * x1 * x2 + 1/7 * x2^3", gens.ambient_dim),),
        degrees=(), degree_cap=gens.degree_cap, dims_by_degree={},
    )
    expected, _ = _reference_certificate(model, sabotaged, 500, 1e-9, 5)
    got = separation_test(model, sabotaged, 500, 1e-9, 5)
    assert len(got.failures) > 400
    assert json.dumps(got.failures) == json.dumps(expected.failures)
    assert got.to_dict() == expected.to_dict()


@pytest.mark.parametrize("name, tol", [
    (name, tol) for name in ["t2_full", "circle12", "hopf", "torus_signed_fixed", "torus_12_fixed",
                             "torus_fixed_pair", "b3", "rational_dihedral"]
    # a group's tolerance 0 accepts no pair: nearest < 0
    for tol in (0, 1e-9, 0.3) if tol or name not in ("b3", "rational_dihedral")])
def test_leaf_pairs_match_reference_predicates(bundled_runs, local_runs, name, tol,
                                              set_same_leaf_tol):
    model = local_runs[name][0] if name in local_runs else bundled_runs[name][0]
    same_leaf, quotient_distance, _ = _reference_predicates(model)
    rng = np.random.default_rng(11)
    ps = rational_sphere_batch(model.ambient_dim, 300, rng)
    ps.nums[::7, :2] = 0  # the first plane's radius is 0: fewer active planes
    # every third pair lies on one leaf
    mates, others = model.leaf_mates(ps, rng), rational_sphere_batch(model.ambient_dim, 300, rng)
    on_leaf = np.arange(300) % 3 == 0
    qs = PointBatch(np.where(on_leaf[:, None], mates.nums, others.nums),
                    np.where(on_leaf, mates.dens, others.dens))
    set_same_leaf_tol(tol)
    same, proxy = model.leaf_pairs(ps, qs)
    p_rows, q_rows = ps.points(), qs.points()
    assert same.tolist() == [same_leaf(p, q, tol) for p, q in zip(p_rows, q_rows)]
    assert proxy.tolist() == [quotient_distance(p, q) for p, q in zip(p_rows, q_rows)]
    if tol == 1e-9:
        assert same[on_leaf].all() and same.sum() < 200


@pytest.mark.parametrize("tol", [0, LEVEL_TOL, 0.3])
@pytest.mark.parametrize("name", ["iso_g1", "iso_g2", "iso_g3", "cartan_so3_g3"])
def test_float_leaf_pairs_match_reference_predicates(bundled_runs, name, tol, set_same_leaf_tol):
    # float points: the isoparametric level predicate, and the predicates
    # of the configured symmetry, which gives every third pair; at tol 0 the
    # level predicate refuses the first point, in pair order, whose norm is
    # not exactly 1, as the reference does
    model = bundled_runs[name][0]
    rng = np.random.default_rng(12)
    ps = sample_sphere_many(300, model.ambient_dim, rng)
    qs = sample_sphere_many(300, model.ambient_dim, rng)
    if model.symmetry is not None:
        qs[::3] = model.leaf_mates(ps[::3], rng)
    p_rows, q_rows = ps.tolist(), qs.tolist()
    set_same_leaf_tol(tol)
    for leaves in (model, model.symmetry):
        if leaves is None:
            continue
        same_leaf, quotient_distance, _ = _reference_predicates(leaves)
        got = _refusal_or(lambda: [a.tolist() for a in leaves.leaf_pairs(ps, qs)])
        expected = _refusal_or(lambda: [[same_leaf(p, q, tol) for p, q in zip(p_rows, q_rows)],
                                        [quotient_distance(p, q) for p, q in zip(p_rows, q_rows)]])
        assert got == expected
        if tol == LEVEL_TOL and model.symmetry is not None:
            assert all(got[0][::3]) and sum(got[0]) < 200


def _reference_export(gens, num_samples, rng_seed, path, model):
    """The per-row export writer: points normalized by ``np.linalg.norm``,
    one ``Polynomial.eval`` per generator and row, and ``math.hypot`` radii
    or a ``Polynomial.eval`` level as labels."""
    dim = gens.ambient_dim
    points = np.random.default_rng(rng_seed).standard_normal((num_samples, dim))
    norms = np.linalg.norm(points, axis=1)
    assert (norms >= 1e-12).all()
    points = points / norms[:, None]
    header = [f"x{i + 1}" for i in range(dim)]
    header += [f"rho{i + 1}" for i in range(len(gens.generators))]
    header += model.leaf_label_names
    float_gens = [p.to_float() for p in gens.generators]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in points:
            point = [float(x) for x in row]
            record = [repr(x) for x in point]
            record += [repr(float(p.eval(point))) for p in float_gens]
            if isinstance(model, TorusModel):
                record += [repr(x) for x in _reference_radii(model, point)]
            elif isinstance(model, IsoparametricModel):
                record += [repr(_reference_level(model, point))]
            writer.writerow(record)


@pytest.mark.parametrize("name", ["hopf", "b3", "iso_g2", "cartan_so3_g3"])
def test_export_matches_per_row_writer(tmp_path, bundled_runs, name):
    model, gens, seed, params = bundled_runs[name]
    for rng_seed, count in ((seed, params.get("num_samples", 500)), (3, 257), (5, 0)):
        expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
        _reference_export(gens, count, rng_seed, expected, model)
        assert quotient_image_export(gens, count, rng_seed, got, model) == count
        assert got.read_bytes() == expected.read_bytes()
