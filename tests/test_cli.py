import copy
import importlib.util
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafavg import ConfigError, FiniteGroupModel, TorusModel
from leafavg.cli import (
    _CONFIG_DIR,
    load_config,
    main,
    model_from_config,
)

B3_MODEL = {
    "kind": "finite_group",
    "ambient_dim": 3,
    "generators": [
        [0, 1, 0, 1, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 1, 0, 1, 0],
        [-1, 0, 0, 0, 1, 0, 0, 0, 1],
    ],
    "max_group_size": 96,
}


def write_config(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data))
    return path


# -- config handling ---------------------------------------------------------------


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"model": }')
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert "line 1" in str(info.value)


def test_load_config_requires_model(tmp_path):
    path = write_config(tmp_path / "nomodel.json", {"params": {}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_model_from_config_nested_and_flat():
    nested = dict(B3_MODEL, generators=[
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ])
    assert model_from_config(nested).order == model_from_config(B3_MODEL).order == 48


def test_model_from_config_rational_strings():
    cfg = {
        "kind": "finite_group",
        "ambient_dim": 2,
        "generators": [["3/5", "-4/5", "4/5", "3/5"]],
        "max_group_size": 8,
    }
    from leafavg import GroupTooLarge
    with pytest.raises(GroupTooLarge):
        model_from_config(cfg)


def test_model_from_config_unknown_kind():
    with pytest.raises(ConfigError):
        model_from_config({"kind": "banana"})


def test_float_entry_in_exact_matrix_rejected():
    cfg = dict(B3_MODEL, mode="exact",
               generators=[[0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ConfigError):
        model_from_config(cfg)


# -- tasks through main() -------------------------------------------------------------


def test_avg_task(tmp_path):
    out = tmp_path / "out"
    code = main(["avg", "--config", str(_CONFIG_DIR / "c4.json"), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "avg_certificate.json").read_text())
    assert payload["passed"] is True
    assert payload["engine"] == "exact"
    assert payload["residuals"]["idempotence"] == 0.0


def test_avg_structured_failure_exits_2_with_artifact(tmp_path, capsys):
    # at seed 1 the iso_g3 structured fit misses its 0.01 tolerance
    out = tmp_path / "out"
    code = main(["avg", "--config", str(_CONFIG_DIR / "iso_g3.json"), "--seed", "1", "--out", str(out)])
    assert code == 2
    payload = json.loads((out / "avg_certificate.json").read_text())
    assert payload["passed"] is False
    failure = payload["structured"]["failure"]
    assert failure["type"] == "BasisDeficient"
    assert failure["residual"] > 0.01
    assert failure["message"] == f"structured residual {failure['residual']:.4g} above tolerance 0.01"
    assert "FAIL" in capsys.readouterr().out


def test_generators_task_with_molien_check(tmp_path):
    out = tmp_path / "out"
    code = main(["generators", "--config", str(_CONFIG_DIR / "b2.json"), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "generators.json").read_text())
    assert payload["molien_check"]["match"] is True
    assert [g["degree"] for g in payload["generators"]] == [2, 4]


def test_verify_task_corrupted_generators(tmp_path):
    gen_file = tmp_path / "gens.json"
    gen_file.write_text(json.dumps({
        "ambient_dim": 3,
        "mode": "exact",
        "degree_cap": 2,
        "generators": [{"degree": 2, "text": "x1^2 + x2^2"}],
        "dims_by_degree": {},
        "provenance": {"source": "deliberately corrupted"},
    }))
    config = write_config(tmp_path / "run.json", {
        "name": "corrupted",
        "model": B3_MODEL,
        "params": {"seed": 3, "generators_file": "gens.json"},
    })
    out = tmp_path / "out"
    code = main(["verify", "--config", str(config), "--out", str(out)])
    assert code == 2
    payload = json.loads((out / "verify_report.json").read_text())
    assert payload["passed"] is False
    kinds = {f["type"] for f in payload["failures"]}
    assert "IdentityViolation" in kinds


def test_verify_reads_the_slices_discovery_built(tmp_path, monkeypatch):
    # b3: one slice per degree up to the cap D = 6; hopf (D = 2): torus averages
    # read the slices too, and the module check's degree-4 products add one
    calls = []

    def counting(invariant_rows):
        def counted(self, monomials):
            calls.append(sum(monomials[0]))
            return invariant_rows(self, monomials)
        return counted

    for model_class in (FiniteGroupModel, TorusModel):
        monkeypatch.setattr(model_class, "invariant_rows", counting(model_class.invariant_rows))
    for config, degrees in [("b3.json", [1, 2, 3, 4, 5, 6]), ("hopf.json", [1, 2, 4])]:
        calls.clear()
        out = tmp_path / config
        assert main(["verify", "--config", str(_CONFIG_DIR / config), "--out", str(out)]) == 0
        assert calls == degrees


def test_verify_task_good_generators(tmp_path):
    config = write_config(tmp_path / "run.json", {
        "name": "b3",
        "model": B3_MODEL,
        "params": {"seed": 3, "D": 4},
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0


@pytest.mark.parametrize("coeff", ["1/10000000000000", "1e-170"])
def test_verify_exact_fixed_point_gate_is_zero(tmp_path, coeff):
    # the x1 * x2 term is not B2-invariant: its residual, 3.5e-14 or an underflowed
    # 0.0, must fail
    data = json.loads((_CONFIG_DIR / "b2.json").read_text())
    data["params"]["generators"] = [
        {"degree": 2, "text": f"x1^2 + x2^2 + {coeff} * x1 * x2"},
        {"degree": 4, "text": "x1^4 + x2^4"},
    ]
    del data["params"]["D"]
    config = write_config(tmp_path / "run.json", data)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
    payload = json.loads((out / "verify_report.json").read_text())
    [failure] = payload["failures"]
    assert failure["identity"] == "projection_fixed_point"
    assert failure["generator"] == 0
    assert failure["residual"] < 1e-12


def test_float_closed_form_model_through_every_task(tmp_path):
    # the float dihedral symmetry of iso_g3 as a model of its own
    symmetry = json.loads((_CONFIG_DIR / "iso_g3.json").read_text())["model"]["symmetry"]
    config = write_config(tmp_path / "run.json", {
        "name": "dihedral_d3_float",
        "model": symmetry,
        "params": {"seed": 5, "D": 6, "f": "x1^2", "num_pairs": 100, "tol_same": 1e-9,
                   "num_samples": 50},
    })
    out = tmp_path / "out"
    for task in ("avg", "generators", "verify", "separate", "export"):
        assert main([task, "--config", str(config), "--out", str(out)]) == 0, task
    gens = json.loads((out / "generators.json").read_text())
    assert [g["text"] for g in gens["generators"]] == ["x1^2 + x2^2", "x1^3 - 3.0 * x1 * x2^2"]
    assert gens["dims_by_degree"] == {"1": 0, "2": 1, "3": 1, "4": 1, "5": 1, "6": 2}
    report = json.loads((out / "verify_report.json").read_text())
    [generation] = [c for c in report["checks"] if c["check"] == "generation"]
    assert max(generation["max_residual_by_degree"].values()) <= 1e-12
    fixed = [c["residual"] for c in report["checks"] if c["check"] == "projection_fixed_point"]
    assert len(fixed) == 2 and max(fixed) <= 1e-12
    engines = {c["engine"] for c in report["checks"] if "engine" in c}
    engines |= {gens["provenance"]["engine"],
                json.loads((out / "avg_certificate.json").read_text())["engine"]}
    assert engines == {"exact"}


def test_separate_task_failure_exit_code(tmp_path):
    config = write_config(tmp_path / "run.json", {
        "name": "t2_r2_only",
        "model": {"kind": "torus", "weight_matrix": [[1, 0], [0, 1]], "n_fix": 0},
        "params": {
            "seed": 9,
            "num_pairs": 40,
            "tol_same": 1e-9,
            "generators": [{"degree": 2, "text": "x1^2 + x2^2 + x3^2 + x4^2"}],
        },
    })
    out = tmp_path / "out"
    code = main(["separate", "--config", str(config), "--out", str(out)])
    assert code == 2
    payload = json.loads((out / "separation_certificate.json").read_text())
    assert payload["verdict"] == "fail"
    assert payload["num_failures"] > 0


def test_export_task(tmp_path):
    out = tmp_path / "out"
    code = main(["export", "--config", str(_CONFIG_DIR / "hopf.json"), "--out", str(out)])
    assert code == 0
    lines = (out / "quotient_image.csv").read_text().strip().splitlines()
    assert len(lines) == 301  # header + rows from the config


def test_seed_override_changes_artifacts(tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    config = str(_CONFIG_DIR / "b2.json")
    assert main(["separate", "--config", config, "--out", str(out1)]) == 0
    assert main(["separate", "--config", config, "--out", str(out2), "--seed", "123"]) == 0
    assert main(["separate", "--config", config, "--out", str(out3), "--seed", "123"]) == 0
    base = (out1 / "separation_certificate.json").read_bytes()
    alt = (out2 / "separation_certificate.json").read_bytes()
    alt2 = (out3 / "separation_certificate.json").read_bytes()
    assert alt != base
    assert alt == alt2


def test_missing_seed_is_config_error(tmp_path):
    config = write_config(tmp_path / "run.json", {
        "name": "no_seed",
        "model": {"kind": "torus", "weight_matrix": [[1], [1]], "n_fix": 0},
        "params": {"D": 2},
    })
    out = tmp_path / "out"
    assert main(["generators", "--config", str(config), "--out", str(out)]) == 1


TORUS = {"kind": "torus", "weight_matrix": [[1], [1]]}
ISO = {"kind": "isoparametric", "ambient_dim": 4, "F": "x1^2 + x2^2 - x3^2 - x4^2", "g": 2}
GOOD_GENERATOR = {"degree": 2, "text": "x1^2 + x2^2"}
B2 = json.loads((_CONFIG_DIR / "b2.json").read_text())["model"]
ISO_G2 = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())["model"]
# generator sets that do not fit the b2 model, written next to each config
BAD_GENERATOR_FILES = {
    "inhomogeneous.json": {"ambient_dim": 2, "generators": [{"degree": 2, "text": "x1^2 + x1"}]},
    "wrong_degree.json": {"ambient_dim": 2, "generators": [{"degree": 4, "text": "x1^2 + x2^2"}]},
    "dim3.json": {"ambient_dim": 3, "generators": [{"degree": 2, "text": "x1^2 + x2^2 + x3^2"}]},
    "provenance_text.json": {"ambient_dim": 2, "generators": [{"degree": 2, "text": "x1^2 + x2^2"}],
                             "provenance": "abc"},
}
BAD_GENERATOR_SETS = {
    "inline_inhomogeneous": {"generators": [{"text": "x1^2 + x1"}]},
    "inline_inhomogeneous_with_degree": {"generators": [{"degree": 2, "text": "x1^2 + x1"}]},
    "inline_wrong_degree": {"generators": [{"degree": 4, "text": "x1^2 + x2^2"}]},
    "inline_constant": {"generators": [{"text": "1"}]},
    "file_inhomogeneous": {"generators_file": "inhomogeneous.json"},
    "file_wrong_degree": {"generators_file": "wrong_degree.json"},
    "file_ambient_dim_differs": {"generators_file": "dim3.json"},
    "file_provenance_not_object": {"generators_file": "provenance_text.json"},
}
GENERATOR_SET_TASKS = ("verify", "separate", "export")
ISO_SYMMETRY = {"kind": "torus", "weight_matrix": [[1, 0], [0, 1]]}
# (id, task, model, params, top-level entries, the key the error must name)
NAMED_KEY_CASES = [
    # keys fixed at their former defaults, which no section declares any more
    ("removed_tol_orth", "generators", {**B2, "tol_orth": 1e-9}, {"seed": 1, "D": 2}, {},
     "tol_orth"),
    ("removed_tol_dedup", "generators", {**B2, "tol_dedup": 1e-9}, {"seed": 1, "D": 2}, {},
     "tol_dedup"),
    ("removed_tol_level", "generators", {**ISO, "tol_level": 1e-6}, {"seed": 1, "D": 1}, {},
     "tol_level"),
    ("removed_munzner_tol", "generators", {**ISO, "munzner_tol": 1e-9}, {"seed": 1, "D": 1}, {},
     "munzner_tol"),
    ("removed_sample_count", "generators", {**ISO, "sample_count": 100_000}, {"seed": 1, "D": 1},
     {}, "sample_count"),
    ("removed_residual_tol", "avg", TORUS, {"seed": 1, "f": "x1^2", "residual_tol": 0.05}, {},
     "residual_tol"),
    ("removed_basic_tol", "verify", TORUS, {"seed": 1, "D": 2, "basic_tol": 1e-9}, {}, "basic_tol"),
    ("removed_num_probes", "verify", TORUS, {"seed": 1, "D": 2, "num_probes": 3}, {}, "num_probes"),
    ("removed_probe_degree", "verify", TORUS, {"seed": 1, "D": 2, "probe_degree": 2}, {},
     "probe_degree"),
    ("removed_structured_tol", "avg", TORUS, {"seed": 1, "f": "x1^2", "structured_tol": 0.01}, {},
     "structured_tol"),
    ("removed_generation_tol", "verify", TORUS, {"seed": 1, "D": 2, "generation_tol": 0.0}, {},
     "generation_tol"),
    ("removed_margin_min", "separate", TORUS, {"seed": 1, "D": 2, "margin_min": 10.0}, {},
     "margin_min"),
    ("removed_same_leaf_tol", "separate", TORUS, {"seed": 1, "D": 2, "same_leaf_tol": 1e-9}, {},
     "same_leaf_tol"),
    # unknown keys, such as typos, in every section
    ("unknown_params_key", "separate", B2, {"seed": 1, "D": 2, "num_pair": 5}, {}, "num_pair"),
    ("unknown_top_level_key", "generators", TORUS, {"seed": 1, "D": 2}, {"output": "x"}, "output"),
    ("unknown_finite_group_key", "generators", {**B2, "order": 8}, {"seed": 1, "D": 2}, {},
     "order"),
    ("unknown_torus_key", "generators", {**TORUS, "nfix": 0}, {"seed": 1, "D": 2}, {}, "nfix"),
    ("unknown_isoparametric_key", "generators", {**ISO, "bandwidth": 0.05}, {"seed": 1, "D": 1},
     {}, "bandwidth"),
    ("unknown_symmetry_key", "generators", {**ISO, "symmetry": {**ISO_SYMMETRY, "nfix": 0}},
     {"seed": 1, "D": 1}, {}, "nfix"),
    ("unknown_generator_key", "export", B2,
     {"seed": 1, "generators": [{**GOOD_GENERATOR, "degre": 2}]}, {}, "degre"),
    # names and the output directory must be strings
    ("out_not_text", "generators", TORUS, {"seed": 1, "D": 2}, {"out": 5}, "out"),
    ("name_not_text", "generators", TORUS, {"seed": 1, "D": 2}, {"name": 5}, "name"),
    ("model_name_not_text", "generators", {**TORUS, "name": [1]}, {"seed": 1, "D": 2}, {}, "name"),
    ("symmetry_name_not_text", "generators", {**ISO, "symmetry": {**ISO_SYMMETRY, "name": 5}},
     {"seed": 1, "D": 1}, {}, "name"),
    # a boolean is no number, and an integer key takes no fractional part
    ("max_group_size_bool", "generators", {**B2, "max_group_size": True}, {"seed": 1, "D": 2}, {},
     "max_group_size must be an integer"),
    ("max_group_size_fractional", "generators", {**B2, "max_group_size": 2.5},
     {"seed": 1, "D": 2}, {}, "max_group_size must be an integer"),
    ("cap_fractional", "generators", TORUS, {"seed": 1, "D": 2.7}, {}, "D must be an integer"),
    ("num_pairs_bool", "separate", TORUS, {"seed": 1, "D": 2, "num_pairs": True}, {},
     "num_pairs must be an integer"),
    ("bandwidth_bool", "generators", {**ISO, "h": True}, {"seed": 1, "D": 2}, {},
     "h must be a number"),
    ("weight_fractional", "generators", {**TORUS, "weight_matrix": [[1.5], [1]]}, {"seed": 1, "D": 2},
     {}, "weight matrix entries must be integers"),
    ("weight_bool", "generators", {**TORUS, "weight_matrix": [[True], [1]]}, {"seed": 1, "D": 2},
     {}, "weight matrix entries must be integers"),
    ("float_matrix_entry_bool", "generators",
     {**B2, "mode": "float", "generators": [[[True, 0], [0, 1]]]}, {"seed": 1, "D": 2}, {},
     "boolean matrix entry"),
]
# one negative tolerance each; the error must name its key
NEGATIVE_TOLERANCES = [
    ("generators", ISO_G2, {"seed": 1, "D": 2, "tol_rank": -1}),
    ("verify", TORUS, {"seed": 1, "D": 2, "identity_tol": -1}),
    ("separate", B2, {"seed": 1, "D": 2, "tol_same": -1}),
]
MALFORMED_CASES = [
    ("generators", TORUS, {"seed": "abc", "D": 2}),
    ("generators", {"kind": "finite_group", "ambient_dim": 2}, {"seed": 1, "D": 2}),
    ("generators", {**ISO, "h": 1.5}, {"seed": 1, "D": 2}),
    ("generators", {"kind": "torus", "weight_matrix": []}, {"seed": 1, "D": 2}),
    ("generators", {"kind": "finite_group", "ambient_dim": "abc", "generators": [[[0, 1], [1, 0]]]},
     {"seed": 1, "D": 2}),
    ("generators", {"kind": "torus", "weight_matrix": [["a"], [1]]}, {"seed": 1, "D": 2}),
    ("generators", TORUS, {"seed": 1, "D": "x"}),
    ("generators", {**ISO, "h": "wide"}, {"seed": 1, "D": 2}),
    ("generators", {"kind": "isoparametric", "ambient_dim": 4, "mode": "float", "F": "1e400*x1", "g": 1},
     {"seed": 1, "D": 2}),
    ("generators", {"kind": "finite_group", "ambient_dim": 2, "generators": [[["abc", 1], [1, 0]]]},
     {"seed": 1, "D": 2}),
    ("generators", {"kind": "torus", "weight_matrix": [1, 1]}, {"seed": 1, "D": 2}),
    ("avg", ISO, {"seed": 1, "f": "x1^2", "sample_points": "x"}),
    ("avg", ISO, {"seed": 1, "f": "x1^2", "mc_samples": "x"}),
    ("verify", TORUS, {"seed": 1, "D": 2, "identity_tol": "x"}),
    ("verify", TORUS, {"seed": 1, "D": 2, "generation_tol": "x"}),
    ("separate", TORUS, {"seed": 1, "D": 2, "same_leaf_tol": "x"}),
    ("separate", TORUS, {"seed": 1, "generators_file": "missing.json"}),
    ("separate", TORUS, {"seed": 1, "generators_file": "run.json"}),
    ("export", TORUS, {"seed": 1, "generators": [{"degree": 2}]}),
    ("export", TORUS, {"seed": 1, "generators": ["x1^2"]}),
    ("export", TORUS, {"seed": 1, "generators_mode": "complex", "generators": [GOOD_GENERATOR]}),
    ("generators", {**ISO, "mode": "complex"}, {"seed": 1, "D": 2}),
    ("avg", TORUS, {"seed": 1, "f": 5}),
    ("generators", {**ISO, "F": 5}, {"seed": 1, "D": 2}),
    ("generators", {**ISO, "symmetry": "abc"}, {"seed": 1, "D": 2}),
    ("generators", "abc", {"seed": 1, "D": 2}),
    ("separate", TORUS, {"seed": 1, "D": 2, "num_pairs": 0}),
    ("generators", TORUS, {"seed": 1, "D": 0}),
    ("generators", TORUS, {"seed": -1, "D": 2}),
    ("avg", ISO, {"seed": 1, "f": "x1^2", "h": 0.05}),
    # a coefficient with more digits than Python writes as text (4300): in
    # the input, and in an average whose input still has 4300 digits
    ("avg", B2, {"seed": 1, "f": "1e-5000 * x1^2"}),
    ("avg", B2, {"seed": 1, "f": "1/9e4299 * x1^2"}),
    # a negative or NaN tolerance
    *NEGATIVE_TOLERANCES,
    ("generators", ISO_G2, {"seed": 1, "D": 2, "tol_rank": math.nan}),
    ("verify", TORUS, {"seed": 1, "D": 2, "identity_tol": math.nan}),
    ("separate", B2, {"seed": 1, "D": 2, "tol_same": math.nan}),
    # an ESS is never below 1, so a smaller or NaN min_ess would switch off its guard
    *[("avg", {**ISO_G2, "min_ess": value}, {"seed": 1, "f": "x1^2"}) for value in (-5, 0.5, math.nan)],
    *[(task, B2, {"seed": 1, **params}) for task in GENERATOR_SET_TASKS
      for params in BAD_GENERATOR_SETS.values()],
]
MALFORMED_IDS = [
    "seed_not_int", "group_without_generators", "bandwidth_above_1", "empty_weights",
    "ambient_dim_not_int", "weight_not_int", "cap_not_int", "bandwidth_not_number",
    "float_coefficient_overflow", "matrix_entry_not_number", "weight_row_not_list",
    "sample_points_not_int", "mc_samples_not_int", "identity_tol_not_number",
    "generation_tol_not_number", "same_leaf_tol_not_number", "missing_generators_file", "generators_file_not_a_set",
    "generator_without_text", "generator_not_object", "generators_mode_complex",
    "model_mode_complex", "f_not_text", "F_not_text", "symmetry_not_object",
    "model_not_object", "no_pairs", "cap_zero", "seed_negative", "params_bandwidth",
    "coefficient_too_long", "average_coefficient_too_long",
    "tol_rank_negative", "identity_tol_negative", "tol_same_negative",
    "tol_rank_nan", "identity_tol_nan", "tol_same_nan",
    "min_ess_negative", "min_ess_below_1", "min_ess_nan",
    *[f"{task}_generators_{name}" for task in GENERATOR_SET_TASKS for name in BAD_GENERATOR_SETS]
]


@pytest.mark.parametrize(
    "task, model, params, top, named",
    [(*case, {}, None) for case in MALFORMED_CASES] + [case[1:] for case in NAMED_KEY_CASES],
    ids=MALFORMED_IDS + [case[0] for case in NAMED_KEY_CASES],
)
def test_malformed_config_exits_1(tmp_path, capsys, task, model, params, top, named):
    for name, data in BAD_GENERATOR_FILES.items():
        write_config(tmp_path / name, data)
    config = write_config(tmp_path / "run.json",
                          {"name": "bad", "model": model, "params": params, **top})
    assert main([task, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if named is not None:
        assert named in err


class _Hang(BaseException):
    """Raised by the alarm: main catches only leafavg errors, never this."""


def _main_within(seconds, argv):
    """``main(argv)``, failing the test when it has not returned in ``seconds``."""
    def hang(signum, frame):
        raise _Hang(f"{argv[0]} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# no fit point meets |F| <= 1 - 2h when h >= 1/2 or on R^1; a non-positive
# ambient_dim once ended in a traceback (F = 1 has no variable to refuse) or,
# with nested generators, ran at the matrices' own dimension
NESTED_SWAP = {"kind": "finite_group", "generators": [[[0, 1], [1, 0]]]}
REFUSED_MODELS = {
    "bandwidth_half": {**ISO_G2, "h": 0.5},
    "bandwidth_0.6": {**ISO_G2, "h": 0.6},
    "iso_on_R1": {"kind": "isoparametric", "ambient_dim": 1, "F": "x1", "g": 1},
    "group_rows_differ": {**NESTED_SWAP, "ambient_dim": 3},
    **{f"{kind}_dim_{dim}": {**model, "ambient_dim": dim}
       for kind, model in (("group", NESTED_SWAP), ("iso", {**ISO_G2, "F": "1"}))
       for dim in (0, -1)},
}


@pytest.mark.parametrize("task", ["avg", "verify", "generators"])
@pytest.mark.parametrize("name", sorted(REFUSED_MODELS))
def test_refused_model_exits_1_at_once(tmp_path, capsys, name, task):
    config = write_config(tmp_path / "run.json", {
        "name": name, "model": REFUSED_MODELS[name], "params": {"seed": 1, "D": 2, "f": "x1^2"}})
    assert _main_within(10, [task, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_params_bandwidth_points_to_model(tmp_path):
    config = write_config(tmp_path / "run.json", {"model": ISO, "params": {"seed": 1, "h": 0.1}})
    with pytest.raises(ConfigError, match="model.h"):
        load_config(config)


FUZZ_BASES = {name: json.loads((_CONFIG_DIR / f"{name}.json").read_text())
              for name in ("b2", "t2_full", "iso_g1")}
FUZZ_FIELDS = [(name, section, key) for name, data in FUZZ_BASES.items()
               for section in ("model", "params") for key in data[section]]
# top-level fields, section None, including the optional out directory
FUZZ_FIELDS += [(name, None, key) for name, data in FUZZ_BASES.items() for key in (*data, "out")]
# small values only: a wrong type must fail fast, never start a long run
WRONG_VALUES = ["abc", [], [1], {}, {"a": 1}, None, True, False, 0, -1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(FUZZ_FIELDS), st.sampled_from(WRONG_VALUES),
       st.sampled_from(("avg", "separate", "export")))
def test_wrong_typed_field_never_escapes_main(field, value, task):
    name, section, key = field
    data = copy.deepcopy(FUZZ_BASES[name])
    (data if section is None else data[section])[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp) / "run.json", data)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([task, "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")


def test_generators_molien_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    """The Molien gate of ``generators``: one Molien count off by one fails
    the run though discovery is unchanged."""
    from leafavg import cli
    molien = cli.molien_dimensions

    def off_by_one(model, max_degree):
        dims = molien(model, max_degree)
        dims[2] += 1
        return dims

    monkeypatch.setattr(cli, "molien_dimensions", off_by_one)
    out = tmp_path / "out"
    assert main(["generators", "--config", str(_CONFIG_DIR / "b2.json"), "--out", str(out)]) == 2
    payload = json.loads((out / "generators.json").read_text())
    assert payload["molien_check"]["match"] is False
    assert payload["passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_b4_cap8_generators_match_reference(tmp_path, monkeypatch):
    """Generators of the order-384 group B4 at degree cap 8, checked against
    the benchmark's recorded reference (read only)."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    out = tmp_path / "out"
    assert main(["generators", "--config", str(bench / "configs" / "b4_cap8.json"),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "generators.json").read_text())
    reference = json.loads((bench / "reference.json").read_text())["b4_cap8"]
    assert workloads.generator_summary(payload) == reference


def test_missing_config_is_error(tmp_path):
    assert main(["avg", "--out", str(tmp_path)]) == 1


def test_selftest_passes(tmp_path):
    assert main(["selftest", "--out", str(tmp_path)]) == 0


def test_selftest_absurd_rank_tolerance_exits_2(tmp_path):
    assert main(["selftest", "--tol-rank", "100", "--out", str(tmp_path)]) == 2


def test_generators_rejects_rank_tolerance_flag(tmp_path, capsys):
    config = _CONFIG_DIR / "b2.json"
    assert main(["generators", "--config", str(config), "--tol-rank", "100",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--tol-rank" in err
    assert not (tmp_path / "generators.json").exists()


def test_selftest_rejects_seed_and_config(tmp_path, capsys):
    config = _CONFIG_DIR / "b2.json"
    assert main(["selftest", "--seed", "5", "--config", str(config),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err and "--config" in err
    assert main(["selftest", "--seed", "5", "--out", str(tmp_path)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "selftest_report.json").exists()


def test_selftest_missing_configs(tmp_path, monkeypatch):
    import leafavg.cli as cli
    monkeypatch.setattr(cli, "_CONFIG_DIR", tmp_path)
    assert main(["selftest", "--out", str(tmp_path / "out")]) == 1


def test_avg_inhomogeneous_rejected(tmp_path):
    config = write_config(tmp_path / "run.json", {
        "name": "bad_f",
        "model": {"kind": "torus", "weight_matrix": [[1], [1]], "n_fix": 0},
        "params": {"seed": 1, "f": "x1^2 + x1"},
    })
    assert main(["avg", "--config", str(config), "--out", str(tmp_path / "out")]) == 1


def test_python_dash_m_runs_the_cli(tmp_path):
    import leafavg

    src = str(Path(leafavg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    config = _CONFIG_DIR / "c4.json"
    result = subprocess.run(
        [sys.executable, "-m", "leafavg", "avg", "--config", str(config), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "avg_certificate.json").exists()
    missing = subprocess.run([sys.executable, "-m", "leafavg", "avg", "--out", str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=120)
    assert missing.returncode == 1


def test_verify_task_statistical_membership_violation(tmp_path):
    # x1^2 is not basic for the quadric levels: its fitted average is
    # (x1^2 + x2^2) / 2, so the projection fixed-point check fails
    data = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())
    data["params"]["generators"] = [{"degree": 2, "text": "x1^2"}]
    del data["params"]["D"]
    config = write_config(tmp_path / "run.json", data)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
    payload = json.loads((out / "verify_report.json").read_text())
    [failure] = [f for f in payload["failures"] if f.get("identity") == "projection_fixed_point"]
    assert failure["type"] == "IdentityViolation"
    assert failure["generator"] == 0
    assert failure["residual"] > 5e-2


# -- the command line -------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["avg", "--seed", "abc"], ["banana"], ["avg", "--bogus", "1"]],
                         ids=["seed_not_int", "unknown_task", "unknown_flag"])
def test_malformed_command_line_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--config", str(_CONFIG_DIR / "b2.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "usage: leafavg" in capsys.readouterr().out


@pytest.mark.parametrize("task, model, params", NEGATIVE_TOLERANCES,
                         ids=["tol_rank", "identity_tol", "tol_same"])
def test_negative_tolerance_names_its_key(tmp_path, capsys, task, model, params):
    [key] = [k for k in params if k not in ("seed", "D")]
    config = write_config(tmp_path / "run.json", {"model": model, "params": params})
    assert main([task, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {key} must be at least 0" in capsys.readouterr().err


def test_negative_rank_tolerance_flag_is_error(tmp_path, capsys):
    assert main(["selftest", "--tol-rank", "-1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: --tol-rank must be at least 0")
    assert not (tmp_path / "selftest_report.json").exists()


# -- exact values past the float range --------------------------------------------------


def bundled_config(tmp_path, name="b2", **params) -> Path:
    """The bundled config ``name`` with ``params`` set; a None value removes its key."""
    data = json.loads((_CONFIG_DIR / f"{name}.json").read_text())
    data["params"].update(params)
    data["params"] = {k: v for k, v in data["params"].items() if v is not None}
    return write_config(tmp_path / "run.json", data)


def test_avg_past_float_range_passes(tmp_path):
    # f * f has a coefficient near 1e600: the contraction slack is clamped exactly
    out = tmp_path / "out"
    assert main(["avg", "--config", str(bundled_config(tmp_path, f="1e300 * x1^2")),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "avg_certificate.json").read_text())
    assert payload["passed"] is True
    assert set(payload["residuals"].values()) == {0.0}


@pytest.mark.parametrize("task, name, texts", [
    ("separate", "b2", ["1e400 * x1^2 + 1e400 * x2^2"]),  # a value at a rational point
    ("export", "b2", ["1e400 * x1^2 + 1e400 * x2^2"]),  # a float coefficient
    ("separate", "b2", ["x1^2 + x2^2", "1e300 * x1^4 + 1e300 * x2^4"]),  # a squared distance
    ("separate", "iso_g2", ["1e400 * x1^2 + 1e400 * x2^2 + 1e400 * x3^2 + 1e400 * x4^2",
                            "x1^2 + x2^2 - x3^2 - x4^2"]),  # a value at a float point
], ids=["separate_value", "export_coefficient", "separate_distance", "separate_float_point"])
def test_generator_past_float_range_exits_1(tmp_path, capsys, task, name, texts):
    config = bundled_config(tmp_path, name, D=None, generators=[{"text": t} for t in texts])
    assert main([task, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "too large" in capsys.readouterr().err.removeprefix("error: ")


# -- gates that no other test trips through the command line ------------------------------


def test_avg_exact_residual_gate_exits_2(tmp_path, monkeypatch):
    # every monomial taken for invariant: the "average" of x1^2 is x1^2, which
    # the swap of B2 moves, so leaf constancy fails the 1e-12 gate
    monkeypatch.setattr(FiniteGroupModel, "invariant_rows",
                        lambda self, monomials: [{e: 1} for e in monomials])
    out = tmp_path / "out"
    assert main(["avg", "--config", str(_CONFIG_DIR / "b2.json"), "--out", str(out)]) == 2
    payload = json.loads((out / "avg_certificate.json").read_text())
    assert payload["passed"] is False and payload["residual_tol"] == 1e-12
    assert payload["average"] == "x1^2"
    assert payload["residuals"]["leaf_constancy"] > 0


def test_avg_statistical_residual_gate_exits_2(tmp_path):
    # the gate is absolute: the estimator's errors grow with f's scale
    data = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())
    data["params"]["f"] = "10000 * x1^2"
    del data["params"]["generators"]
    out = tmp_path / "out"
    assert main(["avg", "--config", str(write_config(tmp_path / "run.json", data)),
                 "--out", str(out)]) == 2
    payload = json.loads((out / "avg_certificate.json").read_text())
    assert payload["passed"] is False and payload["residual_tol"] == 0.05
    assert "structured" not in payload
    assert max(payload["residuals"].values()) > 0.05


def test_verify_statistical_generation_gap_exits_2(tmp_path):
    # r^2 alone misses F in the degree-2 slice of the quadric levels
    data = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())
    data["params"]["generators"] = [{"text": "x1^2 + x2^2 + x3^2 + x4^2"}]
    out = tmp_path / "out"
    assert main(["verify", "--config", str(write_config(tmp_path / "run.json", data)),
                 "--out", str(out)]) == 2
    [failure] = json.loads((out / "verify_report.json").read_text())["failures"]
    assert failure["type"] == "GenerationGap" and failure["degrees"] == [2]
    assert failure["report"]["tolerance"] == 0.05
    assert failure["report"]["max_residual_by_degree"]["2"] > 0.05


def test_separate_same_leaf_gate_exits_2(tmp_path):
    # x1^2 is not B3-invariant, so exact group mates move its value
    data = json.loads((_CONFIG_DIR / "b3.json").read_text())
    data["params"].update(num_pairs=50, generators=[{"text": "x1^2"}])
    out = tmp_path / "out"
    assert main(["separate", "--config", str(write_config(tmp_path / "run.json", data)),
                 "--out", str(out)]) == 2
    payload = json.loads((out / "separation_certificate.json").read_text())
    assert payload["max_same_discrepancy"] > payload["tol_same"]
    assert {f["kind"] for f in payload["failures"]} == {"same_leaf_discrepancy"}


def test_separate_float_margin_gate_alone_exits_2(tmp_path):
    # a small non-invariant term keeps every same-leaf discrepancy under
    # tol_same and every distinct distance above it, but their ratio under 10
    data = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())
    data["params"].update(tol_same=5e-4, generators=[
        {"text": "x1^2 + x2^2 + x3^2 + x4^2"},
        {"text": "x1^2 + x2^2 - x3^2 - x4^2 + 1/5000 * x1 * x3"}])
    out = tmp_path / "out"
    assert main(["separate", "--config", str(write_config(tmp_path / "run.json", data)),
                 "--out", str(out)]) == 2
    payload = json.loads((out / "separation_certificate.json").read_text())
    assert payload["num_failures"] == 0
    assert 1 < payload["margin_ratio"] <= payload["margin_min"] == 10


@pytest.mark.parametrize("task", ["avg", "separate"])
def test_non_munzner_level_polynomial_exits_1(tmp_path, capsys, task):
    data = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())
    data["model"]["F"] = "x1^2 + x2^2 - 3 * x3^2"
    config = write_config(tmp_path / "run.json", data)
    assert main([task, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: Cartan-Munzner identities fail\n"


def test_effective_sample_size_guard_exits_1(tmp_path, capsys):
    data = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())
    data["model"]["min_ess"] = 1e9
    config = write_config(tmp_path / "run.json", data)
    assert main(["avg", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "below minimum 1000000000.0" in capsys.readouterr().err


# -- verify's failure branches ------------------------------------------------------------


def test_verify_generation_gap_exits_2_with_report(tmp_path):
    # p2 and p4 miss the degree-6 invariant x1^6 + x2^6 + x3^6 of B3
    data = json.loads((_CONFIG_DIR / "b3.json").read_text())
    data["params"].update(D=6, generators=[{"text": "x1^2 + x2^2 + x3^2"},
                                           {"text": "x1^4 + x2^4 + x3^4"}])
    out = tmp_path / "out"
    assert main(["verify", "--config", str(write_config(tmp_path / "run.json", data)),
                 "--out", str(out)]) == 2
    payload = json.loads((out / "verify_report.json").read_text())
    [failure] = payload["failures"]
    assert failure["type"] == "GenerationGap" and failure["degrees"] == [6]
    report = failure["report"]
    assert report["gaps"] == [6] and report["tolerance"] == 0.0
    residuals = report["max_residual_by_degree"]
    assert residuals["6"] > 0 and all(residuals[str(d)] == 0.0 for d in range(1, 6))


def test_verify_operator_identity_violation_exits_2(tmp_path):
    data = json.loads((_CONFIG_DIR / "iso_g2.json").read_text())
    data["params"]["identity_tol"] = 1e-6
    out = tmp_path / "out"
    assert main(["verify", "--config", str(write_config(tmp_path / "run.json", data)),
                 "--out", str(out)]) == 2
    failures = json.loads((out / "verify_report.json").read_text())["failures"]
    assert [f["probe"] for f in failures] == [0, 1, 2]
    assert all(f["type"] == "IdentityViolation" and f["residual"] > 1e-6 for f in failures)


# -- generators files ---------------------------------------------------------------------


def test_generators_file_round_trip(tmp_path):
    gens_out, out = tmp_path / "gens", tmp_path / "out"
    assert main(["generators", "--config", str(_CONFIG_DIR / "b3.json"),
                 "--out", str(gens_out)]) == 0
    written = json.loads((gens_out / "generators.json").read_text())
    data = json.loads((_CONFIG_DIR / "b3.json").read_text())
    data["params"]["generators_file"] = str(gens_out / "generators.json")
    config = str(write_config(tmp_path / "run.json", data))
    assert main(["verify", "--config", config, "--out", str(out)]) == 0
    checks = json.loads((out / "verify_report.json").read_text())["checks"]
    assert ([c["text"] for c in checks if c["check"] == "projection_fixed_point"]
            == [g["text"] for g in written["generators"]])
    assert main(["separate", "--config", config, "--out", str(out)]) == 0
    cert = json.loads((out / "separation_certificate.json").read_text())
    assert cert["generator_count"] == len(written["generators"]) == 3
    assert cert["generator_provenance"] == written["provenance"]


# the generator items of every inline bad set, and an unknown item key
BAD_ITEMS = {name: case["generators"] for name, case in BAD_GENERATOR_SETS.items()
             if "generators" in case}
BAD_ITEMS["unknown_item_key"] = [{**GOOD_GENERATOR, "degre": 2}]


@pytest.mark.parametrize("name", BAD_ITEMS)
def test_generators_file_items_read_like_inline(tmp_path, capsys, name):
    write_config(tmp_path / "gens.json", {"generators": BAD_ITEMS[name]})
    errors = []
    for params in ({"generators": BAD_ITEMS[name]}, {"generators_file": "gens.json"}):
        config = write_config(tmp_path / "run.json", {"model": B2, "params": {"seed": 1, **params}})
        assert main(["export", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and errors[0] == errors[1]
    if name == "unknown_item_key":
        assert "'degre'" in errors[0]


def test_generators_file_item_without_degree_takes_its_own(tmp_path):
    write_config(tmp_path / "gens.json", {"generators": [{"text": "x1^2 + x2^2"},
                                                         {"text": "x1^4 + x2^4"}]})
    config = bundled_config(tmp_path, generators_file="gens.json")
    assert main(["verify", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_generators_file_mode_is_checked(tmp_path, capsys):
    write_config(tmp_path / "gens.json", {"mode": "complex", "generators": [GOOD_GENERATOR]})
    config = bundled_config(tmp_path, D=None, generators_file="gens.json")
    assert main(["export", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: mode must be")
