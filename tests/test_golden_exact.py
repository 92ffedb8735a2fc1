"""Golden artifacts: the sha256 of every file each BLAS-free run writes.

Exact runs build their bytes from ``Fraction``s, correctly rounded floats,
numpy's seeded PCG64 and the C library's ``pow``, ``atan2`` and ``hypot``, so
they do not depend on the BLAS.  Every exact bundled config runs ``avg``,
``generators``, ``verify``, ``separate`` and ``export``; the scale configs B4
and Hopf at cap 8 run ``generators`` and ``verify``, and B4 also
``separate`` (its order-384 orbits).  ``separate`` and ``export`` on the
isoparametric configs use only normal draws, elementwise numpy and the same C
functions, so they are pinned too.  Each run is made at the config's seed and
at ``--seed 3``.  A change that means to change an artifact rewrites the
manifest in the same change::

    PYTHONPATH=src python tests/test_golden_exact.py --write

so that the manifest's diff names every artifact that changed.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden_exact.json"
BUNDLED = ROOT / "src" / "leafavg" / "configs"
SCALE = ROOT / "perfbench" / "configs"

EXACT_CONFIGS = ("b2", "b3", "c4", "circle12", "hopf", "t2_full")
TASKS = ("avg", "generators", "verify", "separate", "export")
SCALE_RUNS = {"b4_cap8": ("generators", "verify", "separate"),
              "hopf_cap8": ("generators", "verify")}
FLOAT_CONFIGS = ("iso_g1", "iso_g2", "iso_g3", "cartan_so3_g3")
FLOAT_TASKS = ("separate", "export")
SEEDS = ("config", "3")


def runs():
    """``(key, argv without --out)`` of every run the manifest covers."""
    out = []
    for name, tasks, directory in (
        *((name, TASKS, BUNDLED) for name in EXACT_CONFIGS),
        *((name, tasks, SCALE) for name, tasks in SCALE_RUNS.items()),
        *((name, FLOAT_TASKS, BUNDLED) for name in FLOAT_CONFIGS),
    ):
        for task in tasks:
            for seed in SEEDS:
                argv = [task, "--config", str(directory / f"{name}.json")]
                if seed != "config":
                    argv += ["--seed", seed]
                out.append((f"{task}:{name}:seed={seed}", argv))
    return out


def digest(argv) -> dict:
    """Exit code and sha256 per artifact of one in-process CLI run."""
    from leafavg.cli import main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", tmp])
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path(tmp).iterdir())}
    return {"exit": code, "files": files}


def test_exact_artifacts_match_golden_manifest():
    expected = json.loads(MANIFEST.read_text())
    got = {key: digest(argv) for key, argv in runs()}
    assert sorted(got) == sorted(expected)
    changed = [f"{key} exit {got[key]['exit']}" for key in got
               if got[key]["exit"] != expected[key]["exit"]]
    for key in got:
        old, new = expected[key]["files"], got[key]["files"]
        changed += [f"{key} {name}" for name in sorted(set(old) | set(new))
                    if old.get(name) != new.get(name)]
    assert not changed, f"runs that differ from {MANIFEST.name}: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_exact.py --write")
    MANIFEST.write_text(json.dumps({key: digest(argv) for key, argv in runs()},
                                   indent=1, sort_keys=True) + "\n")
