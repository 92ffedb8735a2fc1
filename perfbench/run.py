"""leafavg benchmark: closed-loop certificate workloads, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact_ring --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One client in this process sends a fixed list of jobs through the public entry
points (``leafavg.cli.main`` with ``--out`` under ``perfbench/work``, and
``IsoparametricModel.leaf_average_mc``), each after the previous one returned.
Every job's output is checked.  One pass is the whole job list; passes repeat,
each after a fresh import of leafavg, while the next one still fits in
``--seconds`` (at least one pass), and every time is the median over passes.

Times are rescaled to one reference speed of the host (see ``hostspeed.py``):
on a shared host the raw wall time of the same pass moved by up to 1.6x from
one minute to the next, while the rescaled time stayed within a few percent.
``wall_s``, ``setup_s`` and the per-task sums are at reference speed; the raw
wall times are printed and recorded next to them as ``wall_raw_s`` and
``setup_raw_s``.

Set-up is timed on its own: a fresh import of leafavg, ``load_config`` and
``build_model`` for every config of the workload, and a numpy warm-up.  It
runs ``SETUP_ROUNDS`` times, half before the passes and half after; ``setup_s``
is the median and the first, cold round is recorded as ``setup_cold_s``.

OpenBLAS runs on one thread (``OPENBLAS_NUM_THREADS=1``).  With its default
two threads on a 2-vCPU guest, about one fresh process in eight handed every
long dot product to a worker thread at ~8 ms a call instead of ~25 us, for a
second or more (2 of 16 processes; the first statistical job then took 0.8-1.0
s instead of 0.1 s), and the worker thread runs on the other vCPU, whose speed
the probe on the main thread does not see: iso_fit's rescaled wall time spread
by 10% over five seeds with two threads and by 1% with one, at the same median
(5.1 s).

Seeds: ``--seed 0`` runs every job with its config's own seed, which reproduces
the shipped artifacts.  Any other value is passed as ``--seed`` to every job
on exact models, to separate/export on isoparametric ones, and to the Monte
Carlo draws.  Statistical certificates (avg, verify and generators on
isoparametric configs) keep their config's seed: with leafavg 0.1.0 most other
seeds fail one of them (see ``workloads.Job``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced, a
traced and another untraced pass and prints the per-layer metrics (see
``tracing.py``); the tracing overhead is the traced pass's wall time minus the
mean of the two untraced ones; traced runs are not rescaled, because the
probe's timer would land inside traced spans.  The last
line of standard output is one JSON object; a full record, with the machine and
load average, goes to ``perfbench/results/``.  The exit code is 1 when any check
failed and 2 when the leafavg sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# before numpy loads OpenBLAS; see the module docstring
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import workloads as wl
from hostspeed import SpeedProbe
from tracing import Tracer

SRC = wl.ROOT / "src"
RESULTS_DIR = wl.BENCH_DIR / "results"
WORK_DIR = wl.BENCH_DIR / "work"
SETUP_ROUNDS = 8
B4_ORDER = 384

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_NAMES = (
    "polynomials.init.calls", "polynomials.init.self_s",
    "polynomials.add.calls", "polynomials.add.self_s",
    "polynomials.mul.calls", "polynomials.mul.self_s", "polynomials.mul.term_pairs",
    "polynomials.sphere_inner.calls", "polynomials.sphere_inner.self_s",
    "polynomials.eval.calls", "polynomials.eval.self_s",
    "polynomials.eval_many.calls", "polynomials.eval_many.self_s", "polynomials.eval_many.points",
    "models.group_closure.self_s", "models.group_closure.elements",
    "models.validate_munzner.self_s",
    "models.group_reynolds.calls", "models.group_reynolds.self_s",
    "models.compose_with_matrix.calls", "models.compose_with_matrix.self_s",
    "models.torus_reynolds.calls", "models.torus_reynolds.self_s",
    "models.sampler_build.calls", "models.sampler_build.self_s", "models.sampler_build.samples",
    "models.kernel_weights.calls", "models.kernel_weights.self_s", "models.kernel_weights.scanned",
    "models.kernel_weights.support_ratio",
    "models.leaf_average_values.calls", "models.leaf_average_values.self_s",
    "models.same_leaf.calls", "models.same_leaf.self_s", "models.same_leaf.true_ratio",
    "models.orbit.calls", "models.orbit.self_s",
    "models.random_leaf_mate.calls", "models.random_leaf_mate.self_s",
    "averaging.average.calls", "averaging.average.self_s",
    "averaging.average_structured.self_s",
    "averaging.verify_operator_identities.calls", "averaging.verify_operator_identities.self_s",
    "averaging.generator_products.self_s",
    "basic_ring.basic_subspace.calls", "basic_ring.basic_subspace.self_s",
    "basic_ring.gram_schmidt_polys.calls", "basic_ring.gram_schmidt_polys.self_s",
    "basic_ring.project_residual.self_s", "basic_ring.molien_dimensions.self_s",
    "basic_ring.discover_generators.self_s", "basic_ring.verify_generation.self_s",
    "exactlinalg.rref.calls", "exactlinalg.rref.self_s", "exactlinalg.rref.cells",
    "exactlinalg.integer_left_kernel.calls", "exactlinalg.integer_left_kernel.self_s",
    "exactlinalg.integer_left_kernel.distinct_ratio",
    "separation.separation_test.self_s",
    "separation.rho_eval.calls", "separation.rho_eval.self_s",
    "separation.rational_sphere_points.calls", "separation.rational_sphere_points.self_s",
    "separation.distinct.attempts", "separation.distinct.accept_ratio",
    "separation.quotient_image_export.self_s",
    "cli.load_config.self_s", "cli.build_model.self_s", "cli.artifact_bytes",
    "process.cpu_s", "trace.traced_wall_s", "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- the program under test -----------------------------------------------------


def fresh_leafavg():
    """Import leafavg from this checkout anew; returns (package, cli, modules)."""
    for name in [n for n in sys.modules if n == "leafavg" or n.startswith("leafavg.")]:
        del sys.modules[name]
    leafavg = importlib.import_module("leafavg")
    cli = importlib.import_module("leafavg.cli")
    if Path(leafavg.__file__).resolve().parent != (SRC / "leafavg").resolve():
        raise RuntimeError(f"imported leafavg from {leafavg.__file__}, not from {SRC}")
    modules = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("leafavg")}
    return leafavg, cli, modules


def warm_up():
    """First-touch numpy work: large temporaries and one BLAS least-squares solve."""
    rng = np.random.default_rng(0)
    for _ in range(3):
        block = rng.standard_normal((200_000, 3))
        float((block * block).sum())
    np.linalg.lstsq(np.eye(30, 6) + 1.0, np.ones(30), rcond=None)


def timed(probe, start, end):
    """(raw seconds, seconds at reference speed) of a span; no probe, no rescaling."""
    if probe is None:
        return end - start, end - start
    return probe.raw(start, end), probe.at_reference(start, end)


def setup_round(workload: wl.Workload, probe):
    start = time.perf_counter()
    _, cli, _ = fresh_leafavg()
    models = {
        name: cli.load_config(wl.config_path(name)).build_model()
        for name in workload.setup_configs
    }
    warm_up()
    elapsed = timed(probe, start, time.perf_counter())
    problems = []
    if "b4_cap8" in models and models["b4_cap8"].order != B4_ORDER:
        problems.append(f"B4 closure has order {models['b4_cap8'].order}, expected {B4_ORDER}")
    return elapsed, problems


def run_pass(workload, seed, out_root, reference, digests, tracer=None, probe=None):
    """Send every job of the workload once; returns the pass record."""
    leafavg, cli, modules = fresh_leafavg()
    if tracer is not None:
        tracer.install(modules)
    jobs = []
    cpu_start = time.process_time()
    for index, job in enumerate(workload.jobs):
        out_dir = out_root / f"{index:02d}-{job.task}-{job.config}"
        before = tracer.snapshot() if tracer is not None else None
        start = time.perf_counter()
        try:
            if tracer is None:
                code, mc = wl.run_job(job, leafavg, cli, out_dir, seed)
            else:
                tracer.job = index
                code, mc = tracer.wrap(wl.run_job, f"job.{job.label}", False, None)(
                    job, leafavg, cli, out_dir, seed)
            end = time.perf_counter()
            problems = wl.check_job(job, code, mc, out_dir, reference)
        except Exception:  # a crash is one failed job; the run goes on
            end = time.perf_counter()
            problems = ["raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]]
        files = wl.digest(out_dir)
        if digests.setdefault(job.label, files) != files:
            problems.append("artifacts differ from an earlier run of the same job")
        raw, ref = timed(probe, start, end)
        record = {"job": job.label, "metric": job.metric, "seconds": ref, "raw_seconds": raw,
                  "problems": problems}
        if tracer is not None:
            after = tracer.snapshot()
            for field, column in (("self_s", 2), ("total_s", 1)):
                record[field] = {
                    name: value[column] - before[name][column]
                    for name, value in after.items()
                    if not name.startswith("job.") and value[column] > before[name][column]
                }
        jobs.append(record)
    return {
        "jobs": jobs,
        "wall_s": sum(j["seconds"] for j in jobs),
        "wall_raw_s": sum(j["raw_seconds"] for j in jobs),
        "cpu_s": time.process_time() - cpu_start,
        "artifact_bytes": sum(wl.artifact_bytes(p) for p in out_root.iterdir()),
    }


# -- metrics ------------------------------------------------------------------------


def per_layer(tracer: Tracer, untraced, traced):
    stats, counters = tracer.stats, tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    def value(name):
        base, _, field = name.rpartition(".")
        if field == "calls":
            return stats[base][0]
        if field == "self_s":
            return stats[base][2]
        derived = {
            "models.kernel_weights.support_ratio": ratio(
                counters.get("models.kernel_weights.nonzero", 0),
                counters.get("models.kernel_weights.scanned", 0)),
            "models.same_leaf.true_ratio": ratio(
                counters.get("models.same_leaf.true", 0), stats["models.same_leaf"][0]),
            "exactlinalg.integer_left_kernel.distinct_ratio": ratio(
                len(tracer.distinct_kernel_inputs), stats["exactlinalg.integer_left_kernel"][0]),
            "separation.distinct.accept_ratio": ratio(
                counters.get("separation.distinct.accepted", 0),
                counters.get("separation.distinct.attempts", 0)),
            "cli.artifact_bytes": traced["artifact_bytes"],
            "process.cpu_s": statistics.mean(p["cpu_s"] for p in untraced),
            "trace.traced_wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - statistics.mean(p["wall_s"] for p in untraced),
        }
        return derived[name] if name in derived else counters.get(name, 0)

    return {name: {"value": value(name), "unit": layer_unit(name)} for name in PER_LAYER_NAMES}


def machine_record():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# -- one workload -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = wl.WORKLOADS[name]
    reference = wl.load_reference()
    load_start = os.getloadavg()
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    digests = {}
    probe = None if trace else SpeedProbe()
    try:
        with contextlib.nullcontext() if probe is None else probe:
            # half the set-up rounds run before the passes and half after, so that
            # their median spans the run rather than one stretch of machine speed
            setup = [setup_round(workload, probe) for _ in range(SETUP_ROUNDS // 2)]
            if trace:
                tracer = Tracer()
                # untraced passes on both sides of the traced one cancel a steady
                # drift of machine speed out of the overhead
                passes = [
                    run_pass(workload, seed, work / "untraced0", reference, digests),
                    run_pass(workload, seed, work / "traced", reference, digests, tracer),
                    run_pass(workload, seed, work / "untraced1", reference, digests),
                ]
                RESULTS_DIR.mkdir(parents=True, exist_ok=True)
                tracer.write_spans(RESULTS_DIR / f"{name}-seed{seed}-spans.jsonl")
            else:
                passes = []
                measure_start = time.perf_counter()
                while True:
                    passes.append(run_pass(workload, seed, work / f"pass{len(passes)}",
                                           reference, digests, probe=probe))
                    spent = time.perf_counter() - measure_start
                    if spent + spent / len(passes) > seconds:  # the next pass would not fit
                        break
            setup += [setup_round(workload, probe) for _ in range(SETUP_ROUNDS - len(setup))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [j for p in passes for j in p["jobs"]]
    attempted = len(jobs) + len(setup)
    failed = sum(1 for j in jobs if j["problems"]) + sum(1 for _, p in setup if p)
    setup_times = [t for t, _ in setup]  # (raw, at reference speed)
    setup_problems = [p for _, problems in setup for p in problems]
    measured = passes[::2] if trace else passes
    summary = {
        "wall_s": statistics.median(p["wall_s"] for p in measured),
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in measured),
        "setup_raw_s": statistics.median(raw for raw, _ in setup_times),
        "host_speed": None if probe is None else probe.speed(-math.inf, math.inf),
    }
    tasks = {
        metric: statistics.median(
            sum(j["seconds"] for j in p["jobs"] if j["metric"] == metric) for p in measured)
        for metric in workload.task_metrics
    }
    if trace:
        metrics = per_layer(tracer, measured, passes[1])
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in summary.items()}

    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(),
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        "passes": len(passes),
        "setup_rounds_s": setup_times,
        "setup_cold_s": setup_times[0][1],
        "end_to_end": summary,
        "raw": raw,
        "task_sums_s": tasks,
        "failed_ratio": failed / attempted,
        "failures": setup_problems + [f"{j['job']}: {p}" for j in jobs for p in j["problems"]],
        "metrics": metrics,
        "pass_records": passes,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    result_path = RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print_report(record, passes, trace)
    print(f"record: {result_path.relative_to(wl.ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def print_report(record, passes, trace):
    m = record["machine"]
    print(f"workload {record['workload']}: {record['why']}")
    print(f"seed {record['seed']}, {record['passes']} pass(es), {m['cores']} cores, "
          f"Python {m['python']}, numpy {m['numpy']}, {m['blas']}, load average "
          f"{record['load_average_start'][0]:.2f} -> {record['load_average_end'][0]:.2f}")
    for problem in record["failures"]:
        print(f"FAILED {problem}")
    rows = dict(record["end_to_end"])
    rows.update(record["task_sums_s"])
    units = dict(END_TO_END, **{k: "s" for k in record["task_sums_s"]})
    for name, value in rows.items():
        print(f"  {name:<14} {value:12.4f} {units[name]}")
    print(f"  {'setup_cold_s':<14} {record['setup_cold_s']:12.4f} s")
    for name, value in record["raw"].items():
        if value is not None:
            print(f"  {name:<14} {value:12.4f} {'s' if name.endswith('_s') else ''}")
    print(f"  {'failed_ratio':<14} {record['failed_ratio']:12.4f} "
          f"({sum(1 for j in passes for x in j['jobs'] if x['problems'])} failed jobs)")
    if trace:
        for name, entry in record["metrics"].items():
            print(f"  {name:<48} {entry['value']:16.6g} {entry['unit']}")
        traced = passes[1]["jobs"]
        for job in sorted(traced, key=lambda j: -j["seconds"])[:3]:
            for field in ("self_s", "total_s"):
                top = sorted(job[field].items(), key=lambda kv: -kv[1])[:5]
                shares = ", ".join(f"{n} {v / job['seconds']:.0%}" for n, v in top)
                print(f"  {field} shares of {job['job']} ({job['seconds']:.2f} s traced): {shares}")


# -- entry point ---------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    worst = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines.pop())
        else:  # the child crashed before its result line
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print("\n".join(lines))
        if proc.returncode or not results[name]["correct"]:
            worst = max(worst, proc.returncode if proc.returncode > 0 else 1)
    print(json.dumps({
        "correct": worst == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leafavg" / "cli.py").is_file():
        print(f"perfbench: no leafavg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
