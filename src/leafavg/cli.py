"""Batch front end: parse a run config, execute one task, write artifacts.

Usage::

    leafavg <task> --config <path> [--out <dir>] [--seed <int>]

with task one of ``avg``, ``generators``, ``verify``, ``separate``,
``export`` and ``selftest``.  A config is a single JSON file with a
``model`` section, a flat ``params`` section and an optional ``out``
directory.  Artifacts (JSON certificates, CSV tables) are byte-identical
across repeated runs with the same config and seed; every stochastic
quantity in a report is stored next to its seed and sample count.

Exit codes: 0 pass, 2 certificate failure, 1 configuration/runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import basic_ring, separation
from .averaging import average, average_polynomial, average_structured, verify_operator_identities
from .basic_ring import GeneratorSet, discover_generators, molien_dimensions, verify_generation
from .errors import (
    BasisDeficient,
    ConfigError,
    DegreeCapWarning,
    GenerationGap,
    IdentityViolation,
    LeafavgError,
    NotCartanMunzner,
)
from .models import (
    FiniteGroupModel,
    IsoparametricModel,
    TorusModel,
    _infer_mode,
    group_closure,
    validate_munzner,
)
from .polynomials import (
    EXACT,
    FLOAT,
    Polynomial,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    sphere_norm,
)

TASKS = ("avg", "generators", "verify", "separate", "export", "selftest")

_CONFIG_DIR = Path(__file__).parent / "configs"

BUNDLED_CONFIGS = (
    "b2.json",
    "b3.json",
    "c4.json",
    "t2_full.json",
    "hopf.json",
    "circle12.json",
    "iso_g1.json",
    "iso_g2.json",
    "iso_g3.json",
    "cartan_so3_g3.json",
)


# -- config parsing -----------------------------------------------------------

# the keys each config section may set; any other key is a ConfigError
_TOP_KEYS = ("name", "model", "params", "out")
_PARAMS_KEYS = (
    "seed", "f", "D", "generators",
    "generators_file", "num_pairs", "tol_same", "num_samples",
)
_MODEL_KEYS = {
    "finite_group": ("kind", "name", "ambient_dim", "generators", "max_group_size"),
    "torus": ("kind", "name", "weight_matrix", "n_fix"),
    "isoparametric": ("kind", "name", "ambient_dim", "F", "mode", "g", "symmetry",
                      "sample_points", "mc_samples", "identity_tol"),
}

_REQUIRED = object()
# the largest sizes a task accepts: the pairs ``separate`` draws, the points
# ``export`` writes, and the degree cap ``D`` of discovery and verification
MAX_NUM_PAIRS = 100_000
MAX_NUM_SAMPLES = 100_000
MAX_DEGREE_CAP = 32


def _check_keys(section: dict, allowed, where: str):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ConfigError(f"unknown key{'s' if len(unknown) > 1 else ''} {names} in {where}")


def _number(section: dict, key: str, kind=int, default=_REQUIRED, minimum=None, maximum=None):
    """``section[key]`` (``default`` when absent and given) as ``kind``,
    ``int`` or ``float``; None when it is null or absent and ``default`` is
    None.  A :class:`ConfigError` when it is a boolean, not a number (not a
    whole one for ``int``), not at least ``minimum`` or not at most
    ``maximum`` (as NaN is neither)."""
    value = section[key] if default is _REQUIRED else section.get(key, default)
    if value is None and default is None:
        return None
    expected = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or kind is int and isinstance(value, float) and value % 1:
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from None
    if minimum is not None and not number >= minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value!r}")
    if maximum is not None and not number <= maximum:
        raise ConfigError(f"{key} must be at most {maximum}, got {value!r}")
    return number


def _text(section: dict, key: str, default):
    """``section[key]`` (``default`` when absent), which must be a string or
    ``default`` itself, so that ``null`` reads as absent when that is None."""
    value = section.get(key, default)
    if not isinstance(value, str) and value is not default:
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _mode(section: dict, key: str):
    """``section[key]`` (exact when absent), which must name a scalar mode."""
    mode = section.get(key, EXACT)
    if mode not in (EXACT, FLOAT):
        raise ConfigError(f"{key} must be {EXACT!r} or {FLOAT!r}, got {mode!r}")
    return mode


def _parse_entry(value, mode: str):
    if isinstance(value, bool):
        raise ConfigError(f"boolean matrix entry {value!r}")
    try:
        if mode == EXACT:
            return Fraction(value)
        return float(Fraction(value)) if isinstance(value, str) else float(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"matrix entry {value!r} is not a number") from None


def _matrix_rows(data, ambient_dim: int) -> list:
    """The rows of a matrix written as a list of rows or flat, row by row."""
    if not isinstance(data, list) or not data:
        raise ConfigError(f"a matrix must be a non-empty list, got {data!r}")
    if all(isinstance(row, list) for row in data) and len(data) == ambient_dim:
        return data
    if any(isinstance(x, list) for x in data) or len(data) != ambient_dim * ambient_dim:
        raise ConfigError(f"a matrix needs {ambient_dim} rows or {ambient_dim * ambient_dim} "
                          f"entries, got {len(data)}")
    return [data[i * ambient_dim:(i + 1) * ambient_dim] for i in range(ambient_dim)]


def model_from_config(cfg: dict):
    """Build a foliation model from its config section."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"a model section must be a JSON object, got {cfg!r}")
    try:
        kind = cfg["kind"]
    except KeyError:
        raise ConfigError("model section needs a 'kind'") from None
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}")
    _check_keys(cfg, _MODEL_KEYS[kind], f"the {kind} model section")
    try:
        return _build_model(kind, cfg)
    except KeyError as err:
        raise ConfigError(f"{kind} model section needs {err}") from None


def _build_model(kind: str, cfg: dict):
    if kind == "finite_group":
        ambient_dim = _number(cfg, "ambient_dim", minimum=1)
        if not isinstance(cfg["generators"], list):
            raise ConfigError(f"generators must be a list of matrices, got {cfg['generators']!r}")
        matrices = [_matrix_rows(g, ambient_dim) for g in cfg["generators"]]
        mode = _infer_mode(matrices)  # float when some entry is a float
        gens = [[[_parse_entry(x, mode) for x in row] for row in rows] for rows in matrices]
        return group_closure(gens, max_group_size=_number(cfg, "max_group_size", int, 512),
                             name=_text(cfg, "name", ""))
    if kind == "torus":
        return TorusModel(
            weight_matrix=cfg["weight_matrix"],
            n_fix=_number(cfg, "n_fix", int, 0),
            name=_text(cfg, "name", ""),
        )
    ambient_dim = _number(cfg, "ambient_dim", minimum=1)
    F = parse_polynomial(cfg["F"], ambient_dim, _mode(cfg, "mode"))
    symmetry = model_from_config(cfg["symmetry"]) if "symmetry" in cfg else None
    sizes = {key: _number(cfg, key, int, None, minimum=1) for key in ("sample_points", "mc_samples")}
    return IsoparametricModel(F, _number(cfg, "g"), symmetry=symmetry, name=_text(cfg, "name", ""),
                              identity_tol=_number(cfg, "identity_tol", float, None, minimum=0), **sizes)


@dataclass
class RunConfig:
    name: str
    model_config: dict
    params: dict
    out: Optional[str]
    path: Optional[Path]

    def build_model(self):
        return model_from_config(self.model_config)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path} is not valid JSON: {err.msg} (line {err.lineno}, column {err.colno})"
        ) from None
    if not isinstance(data, dict) or "model" not in data:
        raise ConfigError(f"config {path} has no 'model' section")
    _check_keys(data, _TOP_KEYS, f"config {path}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a JSON object, got {params!r}")
    _check_keys(params, _PARAMS_KEYS, "params")
    return RunConfig(
        name=_text(data, "name", path.stem),
        model_config=data["model"],
        params=params,
        out=_text(data, "out", None),
        path=path,
    )


def _require_seed(params: dict, override: Optional[int]) -> int:
    if override is not None:
        params = {"seed": override}
    if "seed" not in params:
        raise ConfigError("a seed is mandatory for stochastic tasks (params.seed or --seed)")
    return _number(params, "seed", minimum=0)


def _write_json(payload: dict, path: Path):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_generators(config: RunConfig, model) -> GeneratorSet:
    """The config's generator set, inline or from a ``generators_file``,
    checked against ``model``: every item an object with a ``text`` and an
    optional ``degree``, every generator homogeneous of its degree, which is
    at least 1.  A file's ``provenance`` is kept."""
    params = config.params
    if "generators" in params:
        source, mode = params, model.mode
        provenance = {"source": "inline", "model": model.name}
    else:
        if not isinstance(params["generators_file"], str):
            raise ConfigError(f"generators_file must be a path, got {params['generators_file']!r}")
        gen_path = Path(params["generators_file"])
        if not gen_path.is_absolute() and config.path is not None:
            gen_path = config.path.parent / gen_path
        try:
            source = json.loads(gen_path.read_text())
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read generators file {gen_path}: {err!r}") from None
        if (not isinstance(source, dict)
                or source.get("ambient_dim", model.ambient_dim) != model.ambient_dim):
            raise ConfigError(f"generators file {gen_path} is not a generator set "
                              f"in {model.ambient_dim} variables")
        provenance = source.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ConfigError(f"provenance must be an object, got {provenance!r}")
        mode = _mode(source, "mode")
    items = source.get("generators")
    if not isinstance(items, list):
        raise ConfigError(f"generators must be a list, got {items!r}")
    gens, degrees = [], []
    for item in items:
        if not isinstance(item, dict) or "text" not in item:
            raise ConfigError(f"a generator must be an object with a 'text', got {item!r}")
        _check_keys(item, ("text", "degree"), "a generator")
        poly = parse_polynomial(item["text"], model.ambient_dim, mode)
        degree = poly.homogeneous_degree() if poly.is_homogeneous() else 0
        if degree < 1:
            raise ConfigError(f"generator {format_polynomial(poly)} is not homogeneous "
                              "of degree at least 1")
        if _number(item, "degree", int, degree) != degree:
            raise ConfigError(f"generator {format_polynomial(poly)} has degree {degree}, "
                              f"not its declared degree {item['degree']!r}")
        gens.append(poly)
        degrees.append(degree)
    return GeneratorSet(ambient_dim=model.ambient_dim, mode=mode, generators=tuple(gens),
                        degrees=tuple(degrees), degree_cap=max(degrees, default=0),
                        dims_by_degree={}, provenance=provenance)


def _discover(params: dict, model, seed: int) -> GeneratorSet:
    """The generators up to ``D``; new ones at the cap show in the provenance, not as a warning."""
    cap = _number(params, "D", minimum=1, maximum=MAX_DEGREE_CAP)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeCapWarning)
        return discover_generators(model, cap, seed=seed)


def _generators_for_task(config: RunConfig, model, seed: int) -> GeneratorSet:
    params = config.params
    if "generators" in params or "generators_file" in params:
        return _load_generators(config, model)
    if "D" in params:
        return _discover(params, model, seed)
    raise ConfigError("task needs 'generators', 'generators_file' or a discovery cap 'D'")


# -- tasks --------------------------------------------------------------------


def task_avg(config: RunConfig, model, seed: int, out_dir: Path) -> int:
    params = config.params
    if "f" not in params:
        raise ConfigError("avg task needs params.f (polynomial text)")
    f = parse_polynomial(params["f"], model.ambient_dim, model.mode)
    if not f.is_homogeneous():
        raise ConfigError("avg task expects a homogeneous polynomial")
    cert = average(model, f, seed=seed)
    payload = cert.to_dict()
    failure = None
    if ("generators" in params or "generators_file" in params) and not model.closed_form:
        gens = _load_generators(config, model)
        try:
            structured = average_structured(model, f, gens, seed=seed)
            payload["structured"] = structured.to_dict()
        except BasisDeficient as err:
            failure = {"type": "BasisDeficient", "message": str(err), "residual": err.residual}
            payload["structured"] = {"failure": failure}
    tolerance = 1e-12 if model.exact else model.tolerance
    passed = cert.max_residual() <= tolerance and failure is None
    payload["passed"] = passed
    payload["residual_tol"] = tolerance
    _write_json(payload, out_dir / "avg_certificate.json")
    status = "PASS" if passed else "FAIL"
    print(
        f"avg[{config.name}]: engine={cert.engine} degree={cert.degree} "
        f"max_residual={cert.max_residual():.3e} {status}"
        + (f" ({failure['message']})" if failure else "")
    )
    return 0 if passed else 2


def task_generators(config: RunConfig, model, seed: int, out_dir: Path) -> int:
    if "D" not in config.params:
        raise ConfigError("generators task needs params.D (degree cap)")
    gens = _discover(config.params, model, seed)
    payload = gens.to_dict()
    passed = True
    if isinstance(model, FiniteGroupModel) and model.exact:
        molien = molien_dimensions(model, gens.degree_cap)
        passed = all(gens.dims_by_degree.get(d, 0) == molien[d] for d in range(1, gens.degree_cap + 1))
        payload["molien_check"] = {"dims": molien, "match": passed}
    payload["passed"] = passed
    _write_json(payload, out_dir / "generators.json")
    print(
        f"generators[{config.name}]: degrees={list(gens.degrees)} "
        f"dims={ {d: r for d, r in sorted(gens.dims_by_degree.items())} } "
        f"{'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 2


def task_verify(config: RunConfig, model, seed: int, out_dir: Path) -> int:
    params = config.params
    gens = _generators_for_task(config, model, seed)
    cap = _number(params, "D", minimum=1, maximum=MAX_DEGREE_CAP) if "D" in params else None
    failures = []
    checks = []

    # membership: every generator must be fixed by averaging
    for i, gen in enumerate(gens.generators):
        # a closed-form average keeps the generator's mode; a fitted one is float
        avg_poly = average_polynomial(model, gen, seed=seed + i)
        gap = avg_poly - (gen.to_float() if avg_poly.mode == FLOAT else gen)
        residual = sphere_norm(gap)
        checks.append({
            "check": "projection_fixed_point",
            "generator": i,
            "text": format_polynomial(gen),
            "residual": residual,
        })
        # exact models: the gap itself must vanish, as a tiny gap's float residual can be 0.0
        if not (gap.is_zero if model.exact else residual <= model.tolerance):
            failures.append({
                "type": "IdentityViolation",
                "identity": "projection_fixed_point",
                "generator": i,
                "residual": residual,
            })

    # operator identities on three pairs of degree-2 probe polynomials
    basis = monomial_basis(model.ambient_dim, 2)
    rng = np.random.default_rng(seed)
    mode = model.mode

    def random_poly():
        picks = rng.choice(len(basis), size=min(4, len(basis)), replace=False)
        coeffs = rng.integers(-3, 4, size=len(picks))
        terms = {basis[int(i)]: int(c) for i, c in zip(picks, coeffs) if c != 0}
        if not terms:
            terms = {basis[0]: 1}
        return Polynomial(model.ambient_dim, terms, mode)

    for n in range(3):
        f = random_poly()
        g = random_poly()
        try:
            report = verify_operator_identities(model, f, g, seed=seed + 100 + n)
            checks.append({"check": "operator_identities", "probe": n, **report.to_dict()})
        except IdentityViolation as err:
            failures.append({
                "type": "IdentityViolation",
                "identity": err.identity,
                "probe": n,
                "residual": float(err.residual),
            })

    # generation completeness when a cap is supplied
    if cap is not None:
        try:
            report = verify_generation(model, gens, cap, seed=seed)
            checks.append({"check": "generation", **report.to_dict()})
        except GenerationGap as err:
            failures.append({
                "type": "GenerationGap",
                "degrees": err.degrees,
                "report": err.report.to_dict(),
            })

    payload = {
        "model": model.name,
        "generator_count": len(gens.generators),
        "checks": checks,
        "failures": failures,
        "seed": seed,
        "passed": not failures,
    }
    _write_json(payload, out_dir / "verify_report.json")
    print(
        f"verify[{config.name}]: {len(checks)} checks, {len(failures)} failures "
        f"{'PASS' if not failures else 'FAIL'}"
    )
    return 0 if not failures else 2


def task_separate(config: RunConfig, model, seed: int, out_dir: Path) -> int:
    params = config.params
    gens = _generators_for_task(config, model, seed)
    cert = separation.separation_test(
        model,
        gens,
        _number(params, "num_pairs", int, 1000, minimum=1, maximum=MAX_NUM_PAIRS),
        _number(params, "tol_same", float, 1e-9, minimum=0),
        seed,
    )
    _write_json(cert.to_dict(), out_dir / "separation_certificate.json")
    margin = cert.margin_ratio
    margin_text = "inf" if margin == float("inf") else f"{margin:.3e}"
    print(
        f"separate[{config.name}]: pairs={cert.num_distinct_pairs} "
        f"margin={margin_text} failures={len(cert.failures)} "
        f"{'PASS' if cert.verdict == 'pass' else 'FAIL'}"
    )
    return 0 if cert.verdict == "pass" else 2


def task_export(config: RunConfig, model, seed: int, out_dir: Path) -> int:
    gens = _generators_for_task(config, model, seed)
    path = out_dir / "quotient_image.csv"
    rows = separation.quotient_image_export(
        gens,
        _number(config.params, "num_samples", int, 500, minimum=0, maximum=MAX_NUM_SAMPLES),
        seed,
        path,
        model=model,
    )
    print(f"export[{config.name}]: {rows} rows -> {path}")
    return 0


# -- selftest -----------------------------------------------------------------


def _selftest_checks():
    """Yield (name, callable) pairs; callables raise or return True/False."""

    def load(name):
        return load_config(_CONFIG_DIR / name)

    def check_group_orders():
        return (
            load("b2.json").build_model().order == 8
            and load("b3.json").build_model().order == 48
            and load("c4.json").build_model().order == 4
        )

    def check_molien_equivalence():
        for name in ("b2.json", "b3.json", "c4.json"):
            model = load(name).build_model()
            molien = molien_dimensions(model, 4)
            for d in range(1, 5):
                if basic_ring.basic_subspace(model, d).rank != molien[d]:
                    return False
        return True

    def check_b3_generators():
        model = load("b3.json").build_model()
        gens = discover_generators(model, 6)
        return list(gens.degrees) == [2, 4, 6]

    def check_torus_generators():
        model = load("t2_full.json").build_model()
        gens = discover_generators(model, 4)
        expected = {
            format_polynomial(parse_polynomial("x1^2 + x2^2", 4)),
            format_polynomial(parse_polynomial("x3^2 + x4^2", 4)),
        }
        return {format_polynomial(p) for p in gens.generators} == expected

    def check_munzner_admissions():
        for name in ("iso_g1.json", "iso_g2.json", "iso_g3.json", "cartan_so3_g3.json"):
            load(name).build_model()  # admission happens at construction
        bad = parse_polynomial("x1^2", 4)
        try:
            validate_munzner(bad, 2)
        except NotCartanMunzner:
            return True
        return False

    def check_iso_rank():
        iso = load("iso_g2.json").build_model()
        model = IsoparametricModel(iso.F, iso.g, sample_points=24, mc_samples=20_000)
        basis = basic_ring.basic_subspace(model, 2, seed=7)
        return basis.rank == 2

    def check_separation():
        config = load("b2.json")
        model = config.build_model()
        gens = discover_generators(model, 4)
        cert = separation.separation_test(model, gens, 100, 1e-9, 3)
        return cert.verdict == "pass"

    return [
        ("bundled_group_orders", check_group_orders),
        ("molien_dimension_equivalence", check_molien_equivalence),
        ("b3_generator_degrees", check_b3_generators),
        ("t2_generator_set", check_torus_generators),
        ("munzner_admissions", check_munzner_admissions),
        ("iso_g2_degree2_rank", check_iso_rank),
        ("b2_separation", check_separation),
    ]


def task_selftest(out_dir: Path) -> int:
    missing = [name for name in BUNDLED_CONFIGS if not (_CONFIG_DIR / name).exists()]
    if missing:
        print(f"selftest: missing bundled configs: {missing}")
        return 1
    results = []
    worst = 0
    for name, check in _selftest_checks():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegreeCapWarning)
                ok = bool(check())
        except LeafavgError as err:
            results.append((name, f"FAIL ({type(err).__name__}: {err})"))
            worst = max(worst, 2)
            continue
        results.append((name, "ok" if ok else "FAIL"))
        if not ok:
            worst = max(worst, 2)
    width = max(len(name) for name, _ in results)
    for name, status in results:
        print(f"selftest {name:<{width}} {status}")
    # the rank cut of the fitted slice in iso_g2_degree2_rank
    payload = {"results": {name: status for name, status in results}, "tol_rank": IsoparametricModel.tol_rank}
    _write_json(payload, out_dir / "selftest_report.json")
    return worst


# -- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 as a bad config does, not argparse's 2 (a failed certificate)
        raise ConfigError(message)


@lru_cache(maxsize=None)  # built on the first call, once per process: parsing leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leafavg",
        description="Leaf averaging, generator discovery and separation certificates "
                    "for foliations of round spheres.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--out", help="output directory (default from config, else ./leafavg_out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def run(task: str, config: Optional[RunConfig], out_dir: Path, seed: Optional[int]) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    if task == "selftest":
        return task_selftest(out_dir)
    if config is None:
        raise ConfigError(f"task {task!r} requires --config")
    handler = {
        "avg": task_avg,
        "generators": task_generators,
        "verify": task_verify,
        "separate": task_separate,
        "export": task_export,
    }[task]
    # the model first, so that its errors come before a missing seed's
    model = config.build_model()
    return handler(config, model, _require_seed(config.params, seed), out_dir)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # like an unknown config key, a flag the task does not read is an error
        flags = {"--config": args.config, "--seed": args.seed} if args.task == "selftest" else {}
        if unread := [flag for flag, value in flags.items() if value is not None]:
            raise ConfigError(f"task {args.task!r} does not read {', '.join(unread)}")
        config = load_config(args.config) if args.config else None
        out_dir = Path(args.out or (config.out if config and config.out else "leafavg_out"))
        code = run(args.task, config, out_dir, args.seed)
    except LeafavgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
