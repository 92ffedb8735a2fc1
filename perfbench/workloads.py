"""The four closed-loop job lists and the checks each job's output must pass.

A job is one call of ``leafavg.cli.main`` (one CLI task on one config, with
``--out`` in the run's work directory) or one batch of ``leaf_average_mc``
library calls.  Jobs run one after another in a fixed order; the next job
starts only after the previous one has returned.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUNDLED_DIR = ROOT / "src" / "leafavg" / "configs"
SCALE_DIR = BENCH_DIR / "configs"
REFERENCE_PATH = BENCH_DIR / "reference.json"

EXACT_CONFIGS = ("b2", "b3", "c4", "t2_full", "hopf", "circle12")
ISO_CONFIGS = ("iso_g1", "iso_g2", "iso_g3", "cartan_so3_g3")
ISO_WITH_CAP = ("iso_g1", "iso_g2", "iso_g3")
ALL_CONFIGS = EXACT_CONFIGS + ISO_CONFIGS
SCALE_CONFIGS = ("b4_cap8", "hopf_cap8")

ARTIFACT = {
    "generators": "generators.json",
    "verify": "verify_report.json",
    "avg": "avg_certificate.json",
    "separate": "separation_certificate.json",
    "export": "quotient_image.csv",
}

# one estimate per degree; the seed picks monomials, coefficients and points, so
# every seed asks for the same amount of work
MC_DEGREES = (1, 2, 3, 4, 4)
MC_SAMPLES = 1_000_000
MC_SEED = 18  # iso_g2's own config seed, used when --seed is 0
MC_SE_LIMIT = 3.0


def config_path(name: str) -> Path:
    if name in SCALE_CONFIGS:
        return SCALE_DIR / f"{name}.json"
    return BUNDLED_DIR / f"{name}.json"


@dataclass(frozen=True)
class Job:
    task: str  # a CLI task, or "mc" for the leaf_average_mc batch
    config: str
    metric: str  # the per-task sum this job's time counts toward
    # avg, verify and generators on isoparametric configs keep their config's
    # seed: their tolerances hold at that seed, but 29 of 43 tried seeds (1 to
    # 40, 123456, 987654321, 2^31 - 1) failed at least one of these certificates
    # with leafavg 0.1.0 (avg iso_g3 and verify on all four iso configs)
    statistical: bool = False

    @property
    def label(self) -> str:
        return f"{self.task}:{self.config}"


def _exact_ring() -> List[Job]:
    jobs = []
    for name in EXACT_CONFIGS:
        jobs.append(Job("generators", name, "generators_s"))
        jobs.append(Job("verify", name, "verify_s"))
    jobs.append(Job("generators", "hopf_cap8", "scale_hopf_s"))
    jobs.append(Job("generators", "b3", "generators_s"))  # repeated: must write the same bytes
    return jobs


def _iso_fit() -> List[Job]:
    jobs = []
    for name in ISO_CONFIGS:
        jobs.append(Job("avg", name, "avg_s", statistical=True))
        jobs.append(Job("verify", name, "verify_s", statistical=True))
    for name in ISO_WITH_CAP:
        jobs.append(Job("generators", name, "generators_s", statistical=True))
    jobs.append(Job("mc", "iso_g2", "mc_s"))
    jobs.append(Job("avg", "iso_g2", "avg_s", statistical=True))  # repeated: must write the same bytes
    return jobs


def _separate_all() -> List[Job]:
    jobs = []
    for name in ALL_CONFIGS:
        jobs.append(Job("separate", name, "separate_s"))
        jobs.append(Job("export", name, "export_s"))
    jobs.append(Job("separate", "hopf", "separate_s"))  # repeated: must write the same bytes
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Tuple[Job, ...]
    setup_configs: Tuple[str, ...]  # configs loaded and built by set-up
    task_metrics: Tuple[str, ...]  # per-task sums this workload reports


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "exact_ring",
            "exact polynomial arithmetic, the sphere pairing, Reynolds averaging and "
            "exact rref on the bundled exact configs and Hopf at cap 8; no samplers",
            tuple(_exact_ring()),
            EXACT_CONFIGS + ("hopf_cap8",),
            ("generators_s", "verify_s", "scale_hopf_s"),
        ),
        Workload(
            "scale_b4",
            "generators on B4 (order 384) at degree cap 8: polynomial construction "
            "and addition in group Reynolds averaging dominate",
            (Job("generators", "b4_cap8", "scale_b4_s"),),
            ("b4_cap8",),
            ("scale_b4_s",),
        ),
        Workload(
            "iso_fit",
            "sampler build, kernel weights, leaf averages, eval_many and least squares "
            "dominate; exact arithmetic is almost absent",
            tuple(_iso_fit()),
            ISO_CONFIGS + ("t2_full",),
            ("verify_s", "avg_s", "mc_s"),
        ),
        Workload(
            "separate_all",
            "exact evaluation at rational points, same-leaf predicates, Fraction orbits "
            "and torus phase kernels dominate",
            tuple(_separate_all()),
            ALL_CONFIGS,
            ("separate_s", "export_s"),
        ),
    )
}


# -- running one job ----------------------------------------------------------


def cli_argv(job: Job, out_dir: Path, seed: int) -> List[str]:
    argv = [job.task, "--config", str(config_path(job.config)), "--out", str(out_dir)]
    if seed and not job.statistical:
        argv += ["--seed", str(seed)]
    return argv


def random_homogeneous(leafavg, dim: int, degree: int, rng: np.random.Generator):
    """A few monomials of one degree with small random integer coefficients.

    The monomials are a fixed pick per degree with the variables permuted at
    random, so every seed gets the same number of terms and the same power
    tables in ``eval_many`` (with freely drawn monomials the peak memory of
    iso_fit moved by 7% from seed to seed).
    """
    basis = leafavg.monomial_basis(dim, degree)
    picks = np.random.default_rng(degree).choice(len(basis), size=min(4, len(basis)), replace=False)
    order = rng.permutation(dim)
    terms = {
        tuple(basis[int(i)][j] for j in order): int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        for i in picks
    }
    return leafavg.Polynomial(dim, terms)


def run_mc(leafavg, cli, seed: int) -> List[Tuple[float, List[Tuple[float, float]]]]:
    """Leaf averages on iso_g2 at N = 10^6 next to the exact T^2 average.

    Polynomials, points and sampler seeds are drawn from ``seed`` (``MC_SEED``
    when it is 0).  Returns (truth, [(estimate, SE), ...]) per estimate.  A
    correct estimator lands beyond 3 SE with probability 0.27%, so 1.3% of
    five-estimate passes would fail on chance alone; an estimate beyond the
    limit is therefore drawn once more with a fresh sampler seed, and the check
    fails only when both draws miss: about 4e-5 per pass by chance, while a bias
    of 4 SE still fails each estimate with probability 0.7.
    """
    model = cli.load_config(config_path("iso_g2")).build_model()
    oracle = cli.load_config(config_path("t2_full")).build_model()
    rng = np.random.default_rng(seed or MC_SEED)
    out = []
    for degree in MC_DEGREES:
        f = random_homogeneous(leafavg, 4, degree, rng)
        while True:
            p = leafavg.sample_sphere_many(1, 4, rng)[0]
            if abs(model.level_of(p)) < 1.0 - 2.0 * model.h:
                break
        truth = float(oracle.reynolds(f).eval([float(x) for x in p]))
        draws = []
        for _ in range(2):
            est, se = model.leaf_average_mc(f, p, rng_seed=int(rng.integers(0, 2 ** 31)), n=MC_SAMPLES)
            draws.append((float(est), float(se)))
            if abs(est - truth) <= MC_SE_LIMIT * se:
                break
        out.append((truth, draws))
    return out


def run_job(job: Job, leafavg, cli, out_dir: Path, seed: int):
    """Run one job with its report lines silenced; returns (exit code, MC estimates)."""
    with redirect_stdout(io.StringIO()):
        if job.task == "mc":
            return 0, run_mc(leafavg, cli, seed)
        return cli.main(cli_argv(job, out_dir, seed)), None


# -- checks -------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def generator_summary(payload: dict) -> dict:
    """The meaning of a generators artifact, without its provenance."""
    summary = {
        "degrees": [g["degree"] for g in payload["generators"]],
        "dims_by_degree": payload["dims_by_degree"],
    }
    if payload["mode"] == "exact":
        summary["texts"] = [g["text"] for g in payload["generators"]]
    if "molien_check" in payload:
        summary["molien"] = payload["molien_check"]["dims"]
    return summary


def _params(name: str) -> dict:
    return json.loads(config_path(name).read_text()).get("params", {})


def check_job(job: Job, code: int, mc, out_dir: Path, reference: dict) -> List[str]:
    """Problems with one job's outcome; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if job.task == "mc":
        return [
            f"MC estimate {i}: |{est:.5g} - {truth:.5g}| > {MC_SE_LIMIT:g} * {se:.3g} on both draws"
            for i, (truth, draws) in enumerate(mc)
            for est, se in draws[-1:]
            if abs(est - truth) > MC_SE_LIMIT * se
        ]
    path = out_dir / ARTIFACT[job.task]
    if not path.is_file():
        return [f"missing artifact {path.name}"]
    if job.task == "export":
        return _check_export(job, path)
    payload = json.loads(path.read_text())
    problems = []
    if job.task == "generators":
        if payload.get("passed") is not True:
            problems.append("generators did not pass")
        if "molien_check" in payload and payload["molien_check"]["match"] is not True:
            problems.append("Molien dimensions do not match")
        if generator_summary(payload) != reference[job.config]:
            problems.append("generators differ from the recorded reference")
    elif job.task in ("verify", "avg"):
        if payload.get("passed") is not True or payload.get("failures"):
            problems.append(f"{job.task} did not pass")
    elif job.task == "separate":
        if payload["verdict"] != "pass":
            problems.append(f"separation verdict {payload['verdict']}")
        if job.config in EXACT_CONFIGS and payload["max_same_discrepancy"] != 0:
            problems.append("nonzero exact same-leaf discrepancy")
        if payload["num_distinct_pairs"] < int(_params(job.config).get("num_pairs", 1000)):
            problems.append("fewer distinct pairs than configured")
    return problems


def _check_export(job: Job, path: Path) -> List[str]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    expected = int(_params(job.config).get("num_samples", 500))
    if len(rows) != expected + 1:
        return [f"{len(rows) - 1} export rows, expected {expected}"]
    width = len(rows[0])
    for row in rows[1:]:
        if len(row) != width:
            return ["ragged export row"]
        try:
            [float(x) for x in row]
        except ValueError:
            return ["non-numeric export value"]
    return []


def digest(out_dir: Path) -> Dict[str, str]:
    """SHA-256 of every artifact a job wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    } if out_dir.is_dir() else {}


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()) if out_dir.is_dir() else 0
