"""Statistical artifacts are the same bytes as with the reference sphere
draw and the evaluator without blocks.

The one statistical part of ``avg``, ``verify`` and ``generators`` on the
isoparametric configs is ``avg``'s check of the closed-form average against
plain means over transported points.  The tasks run at their config seeds
twice in this process: as shipped, and with the reference normalisation of
the draws and unblocked ``eval_many`` (``util.unblocked_eval_many``) patched
in.  Both runs share the process and its BLAS, so the comparison does not
depend on the BLAS build, as a pinned digest of these artifacts would.
"""

from collections import Counter

import numpy as np
import pytest

from leafavg import Polynomial, averaging

from test_golden_exact import BUNDLED, FLOAT_CONFIGS, digest
from util import unblocked_eval_many

TASKS = ("avg", "verify", "generators")


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
    """Patch in the reference draw of the transported points and the
    reference evaluator; ``calls`` counts the draws (``"draw"``) and the
    evaluations of ``f`` or its average on their images (``"eval"``)."""
    images = []

    def counted_draw(count, ambient_dim, rng):
        calls["draw"] += 1
        return reference_sample_sphere_many(count, ambient_dim, rng)

    transport = averaging.IsoparametricModel.transport

    def kept_transport(self, points, levels):
        images.append(transport(self, points, levels))
        return images[-1]

    def counted_eval(poly, points):
        calls["eval"] += any(image is points for image in images)
        return unblocked_eval_many(poly, points)

    monkeypatch.setattr(averaging, "sample_sphere_many", counted_draw)
    monkeypatch.setattr(averaging.IsoparametricModel, "transport", kept_transport)
    monkeypatch.setattr(Polynomial, "eval_many", counted_eval)


@pytest.mark.parametrize("name", FLOAT_CONFIGS)
def test_statistical_artifacts_match_reference_estimator(name, monkeypatch):
    runs = [[task, "--config", str(BUNDLED / f"{name}.json")] for task in TASKS]
    shipped = [digest(argv) for argv in runs]
    calls = Counter()
    with monkeypatch.context() as patch:
        _reference_engine(patch, calls)
        reference = [digest(argv) for argv in runs]
    # each reference part ran: the draw of every level's points and the
    # evaluation of f and its average on their images
    levels = len(averaging.TRANSPORT_LEVELS)
    assert calls["draw"] == levels, "the reference draw did not serve every level"
    assert calls["eval"] == 2 * levels, "the reference evaluator did not run on every image"
    for argv, got, want in zip(runs, shipped, reference):
        assert got == want, argv[0]
    assert any(run["files"] for run in shipped), "no run wrote an artifact"
