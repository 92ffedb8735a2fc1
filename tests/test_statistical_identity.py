"""Statistical artifacts are the same bytes as with the estimator that ran
the jackknife for every row on a row-major cloud, evaluated without blocks.

``avg``, ``verify`` and ``generators`` run on the isoparametric configs at
their config seeds twice in this process: as shipped, and with the reference
estimator, cloud layout, sphere normalisation and unblocked ``eval_many``
(``util.unblocked_eval_many``) patched in.  Both runs share the process and
its BLAS, so the comparison does not depend on the BLAS build, as a pinned
digest of these artifacts would.
"""

import weakref
from collections import Counter

import numpy as np
import pytest

from leafavg import EffectiveSampleTooSmall, Polynomial, models
from leafavg.models import LevelSetSampler

from test_golden_exact import BUNDLED, FLOAT_CONFIGS, digest
from util import unblocked_eval_many

TASKS = ("avg", "verify", "generators")


def reference_leaf_average_values(self, values, levels):
    """The estimator with a jackknife SE for every row at every level."""
    min_ess = self.min_ess
    estimates = np.empty((len(values), len(levels)))
    ses = np.empty_like(estimates)
    n = self.count
    for j, level in enumerate(levels):
        level = float(level)
        window = self.window(level)
        w = self.weights(level, window)
        sw = float(w.sum())
        if sw <= 0.0:
            raise EffectiveSampleTooSmall("no samples in the kernel window")
        ess = sw * sw / float((w * w).sum())
        if ess < min_ess:
            raise EffectiveSampleTooSmall(
                f"effective sample size {ess:.1f} below minimum {min_ess}"
            )
        wf = values[:, window] * w
        swf = wf.sum(axis=1)
        est = swf / sw
        loo = (swf[:, None] - wf) / (sw - w)
        outside = n - len(w)
        mean = (loo.sum(axis=1) + outside * est) / n
        centered = loo - mean[:, None]
        spread = (centered * centered).sum(axis=1) + outside * (est - mean) ** 2
        estimates[:, j] = est
        ses[:, j] = np.sqrt((n - 1) / n * spread)
    return estimates, ses


def reference_sample_sphere_many(count, ambient_dim, rng):
    """Normalized standard normals, divided into a new array."""
    points = rng.standard_normal((count, ambient_dim))
    norms = np.linalg.norm(points, axis=1)
    bad = norms < 1e-12
    while bad.any():
        points[bad] = rng.standard_normal((int(bad.sum()), ambient_dim))
        norms = np.linalg.norm(points, axis=1)
        bad = norms < 1e-12
    return points / norms[:, None]


def _reference_engine(monkeypatch, calls):
    """Patch in the reference engine; ``calls`` counts the reference
    estimator's calls (``"estimator"``), and the reference draws and
    evaluations on full clouds (``"draw"``, ``"eval"``)."""
    init = LevelSetSampler.__init__
    full_build = [False]  # inside the build of a full (level-free) cloud
    clouds = []  # weak references to the full clouds' points

    def row_major_init(self, model, seed, count, *, level=None):
        full_build[0] = level is None
        try:
            init(self, model, seed, count, level=level)
        finally:
            full_build[0] = False
        self.points = np.ascontiguousarray(self.points)
        self.points.flags.writeable = False
        if level is None:
            clouds.append(weakref.ref(self.points))

    def counted(self, values, levels, se_rows=None):
        calls["estimator"] += 1
        return reference_leaf_average_values(self, values, levels)

    def counted_draw(count, ambient_dim, rng):
        calls["draw"] += full_build[0]
        return reference_sample_sphere_many(count, ambient_dim, rng)

    def counted_eval(poly, points):
        calls["eval"] += any(ref() is points for ref in clouds)
        return unblocked_eval_many(poly, points)

    monkeypatch.setattr(LevelSetSampler, "__init__", row_major_init)
    monkeypatch.setattr(LevelSetSampler, "leaf_average_values", counted)
    monkeypatch.setattr(models, "sample_sphere_many", counted_draw)
    monkeypatch.setattr(Polynomial, "eval_many", counted_eval)


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_statistical_artifacts_match_reference_estimator(name, monkeypatch):
    runs = [[task, "--config", str(BUNDLED / f"{name}.json")] for task in TASKS]
    shipped = [digest(argv) for argv in runs]
    calls = Counter()
    with monkeypatch.context() as patch:
        _reference_engine(patch, calls)
        reference = [digest(argv) for argv in runs]
    # each reference part ran, so the comparison covers the estimator, the
    # draw of every full cloud and the evaluation on it
    assert calls["estimator"], "the reference estimator never ran"
    assert calls["draw"], "no full cloud was drawn by the reference normalisation"
    assert calls["eval"], "the reference evaluator never ran on a full cloud"
    for argv, got, want in zip(runs, shipped, reference):
        assert got == want, argv[0]
    assert any(run["files"] for run in shipped), "no run wrote an artifact"
