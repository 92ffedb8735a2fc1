"""Statistical artifacts are the same bytes as with the estimator that ran
the jackknife for every row on a row-major cloud.

``avg``, ``verify`` and ``generators`` run on the isoparametric configs at
their config seeds twice in this process: as shipped, and with the reference
estimator, cloud layout and sphere normalisation below patched in.  Both runs
share the process and its BLAS, so the comparison does not depend on the BLAS
build, as a pinned digest of these artifacts would.
"""

import numpy as np
import pytest

from leafavg import EffectiveSampleTooSmall, models
from leafavg.models import LevelSetSampler

from test_golden_exact import BUNDLED, FLOAT_CONFIGS, digest

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
    init = LevelSetSampler.__init__

    def row_major_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.points = np.ascontiguousarray(self.points)
        self.points.flags.writeable = False

    def counted(self, values, levels, se_rows=None):
        calls.append(len(values))
        return reference_leaf_average_values(self, values, levels)

    monkeypatch.setattr(LevelSetSampler, "__init__", row_major_init)
    monkeypatch.setattr(LevelSetSampler, "leaf_average_values", counted)
    monkeypatch.setattr(models, "sample_sphere_many", reference_sample_sphere_many)


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_statistical_artifacts_match_reference_estimator(name, monkeypatch):
    runs = [[task, "--config", str(BUNDLED / f"{name}.json")] for task in TASKS]
    shipped = [digest(argv) for argv in runs]
    calls = []
    with monkeypatch.context() as patch:
        _reference_engine(patch, calls)
        reference = [digest(argv) for argv in runs]
    assert calls, "the reference estimator never ran"
    for argv, got, want in zip(runs, shipped, reference):
        assert got == want, argv[0]
    assert any(run["files"] for run in shipped), "no run wrote an artifact"
