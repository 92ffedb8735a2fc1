"""The benchmark's trace layer must find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, qualname, *_ in tracing.TARGETS:
        module = importlib.import_module(f"leafavg.{module_name}")
        if "." in qualname:
            # Tracer.install replaces the method found in the class's own __dict__
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(attr))
        else:
            found = callable(getattr(module, qualname, None))
        if not found:
            missing.append(f"{module_name}.{qualname}")
    assert not missing, f"trace targets that no longer resolve: {missing}"
