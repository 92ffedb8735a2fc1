"""Span recorder that wraps leafavg's public functions from outside the package.

Each wrapped call pushes a frame on one stack.  When it returns, its duration
is added to the parent frame's child time, so a layer's self time is its
duration minus the time its wrapped children cover.  Every call updates the
aggregate ``[calls, total_s, self_s]`` of its metric name.  Calls of hot leaf
functions (polynomial arithmetic, per-sample kernels, per-pair predicates) are
only aggregated; every other call is also kept as a span record
``(id, parent_id, job, name, start, end)`` in memory and written out at the end
of the run.

Functions are rebound in every leafavg module that holds them (the package
imports names with ``from .polynomials import sphere_inner``, so patching only
the defining module would miss calls); methods are replaced on their class.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

import numpy as np


def _add(tracer: "Tracer", key: str, amount) -> None:
    tracer.counters[key] = tracer.counters.get(key, 0) + amount


def _mul_pairs(tracer, args, result):
    _add(tracer, "polynomials.mul.term_pairs", len(args[0]) * len(args[1]))


def _eval_points(tracer, args, result):
    _add(tracer, "polynomials.eval_many.points", len(result))


def _closure_elements(tracer, args, result):
    _add(tracer, "models.group_closure.elements", result.order)


def _sampler_samples(tracer, args, result):
    _add(tracer, "models.sampler_build.samples", args[0].count)


def _kernel_support(tracer, args, result):
    _add(tracer, "models.kernel_weights.scanned", len(result))
    _add(tracer, "models.kernel_weights.nonzero", int(np.count_nonzero(result)))


def _same_leaf_outcome(tracer, args, result):
    _add(tracer, "models.same_leaf.true", int(bool(result)))
    if tracer.open_count("separation.separation_test"):
        # inside a separation test every predicate call is one distinct-pair attempt
        _add(tracer, "separation.distinct.attempts", 1)
        _add(tracer, "separation.distinct.accepted", int(not result))


def _rref_cells(tracer, args, result):
    rows = args[0]
    _add(tracer, "exactlinalg.rref.cells", len(rows) * (len(rows[0]) if len(rows) else 0))


def _kernel_inputs(tracer, args, result):
    tracer.distinct_kernel_inputs.add(tuple(tuple(int(x) for x in row) for row in args[0]))


# (module, function or Class.method, metric name, hot, extra counter)
# IsoparametricModel.random_leaf_mate only hands off to its symmetry model's
# method, which is wrapped already, so it is left alone to count each mate once.
TARGETS = (
    ("polynomials", "Polynomial.__init__", "polynomials.init", True, None),
    ("polynomials", "Polynomial.__add__", "polynomials.add", True, None),
    ("polynomials", "Polynomial.__mul__", "polynomials.mul", True, _mul_pairs),
    ("polynomials", "Polynomial.eval", "polynomials.eval", True, None),
    ("polynomials", "Polynomial.eval_many", "polynomials.eval_many", True, _eval_points),
    ("polynomials", "sphere_inner", "polynomials.sphere_inner", True, None),
    ("models", "group_closure", "models.group_closure", False, _closure_elements),
    ("models", "validate_munzner", "models.validate_munzner", False, None),
    ("models", "FiniteGroupModel.reynolds", "models.group_reynolds", False, None),
    ("models", "compose_with_matrix", "models.compose_with_matrix", True, None),
    ("models", "TorusModel.reynolds", "models.torus_reynolds", False, None),
    ("models", "LevelSetSampler.__init__", "models.sampler_build", False, _sampler_samples),
    ("models", "LevelSetSampler.weights", "models.kernel_weights", True, _kernel_support),
    ("models", "LevelSetSampler.leaf_average_values", "models.leaf_average_values", True, None),
    ("models", "FiniteGroupModel.same_leaf", "models.same_leaf", True, _same_leaf_outcome),
    ("models", "TorusModel.same_leaf", "models.same_leaf", True, _same_leaf_outcome),
    ("models", "IsoparametricModel.same_leaf", "models.same_leaf", True, _same_leaf_outcome),
    ("models", "FiniteGroupModel.orbit", "models.orbit", True, None),
    ("models", "FiniteGroupModel.random_leaf_mate", "models.random_leaf_mate", True, None),
    ("models", "TorusModel.random_leaf_mate", "models.random_leaf_mate", True, None),
    ("averaging", "average", "averaging.average", False, None),
    ("averaging", "average_structured", "averaging.average_structured", False, None),
    ("averaging", "verify_operator_identities", "averaging.verify_operator_identities", False, None),
    ("averaging", "generator_products", "averaging.generator_products", False, None),
    ("basic_ring", "basic_subspace", "basic_ring.basic_subspace", False, None),
    ("basic_ring", "gram_schmidt_polys", "basic_ring.gram_schmidt_polys", False, None),
    ("basic_ring", "project_residual", "basic_ring.project_residual", True, None),
    ("basic_ring", "molien_dimensions", "basic_ring.molien_dimensions", False, None),
    ("basic_ring", "discover_generators", "basic_ring.discover_generators", False, None),
    ("basic_ring", "verify_generation", "basic_ring.verify_generation", False, None),
    ("exactlinalg", "rref", "exactlinalg.rref", False, _rref_cells),
    ("exactlinalg", "integer_left_kernel", "exactlinalg.integer_left_kernel", True, _kernel_inputs),
    ("separation", "separation_test", "separation.separation_test", False, None),
    ("separation", "rho_eval", "separation.rho_eval", True, None),
    ("separation", "rational_sphere_points", "separation.rational_sphere_points", True, None),
    ("separation", "quotient_image_export", "separation.quotient_image_export", False, None),
    ("cli", "load_config", "cli.load_config", False, None),
    ("cli", "RunConfig.build_model", "cli.build_model", False, None),
)


class Tracer:
    """In-memory spans and per-name aggregates for one traced pass."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.distinct_kernel_inputs: set = set()
        self.spans: List[tuple] = []
        self.job: Optional[int] = None
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self._next_id = 0

    def open_count(self, name: str) -> int:
        return self._open.get(name, 0)

    def wrap(self, fn: Callable, name: str, hot: bool, extra: Optional[Callable]) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if hot:
                span_id = parent  # not a span: its children hang off the nearest recorded ancestor
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer._open[name] = tracer._open.get(name, 0) + 1
            # [child time, span id of the nearest recorded ancestor]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    tracer._open[name] -= 1
                    tracer.spans.append((span_id, parent, tracer.job, name, start, end))
            if extra is not None:
                extra(tracer, args, result)
            return result

        return wrapper

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every target in a freshly imported set of leafavg modules."""
        for module_name, qualname, name, hot, extra in TARGETS:
            module = modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], name, hot, extra))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(original, name, hot, extra)
            for holder in modules.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def snapshot(self) -> Dict[str, tuple]:
        """Current (calls, total_s, self_s) of every name, for per-job differences."""
        return {name: tuple(stat) for name, stat in self.stats.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, job, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "job": job, "name": name,
                    "start": start, "end": end,
                }) + "\n")
