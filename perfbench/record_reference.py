"""Record the generator reference that the benchmark's checks compare against.

Runs ``leafavg generators`` at each config's own seed for every config that a
workload runs ``generators`` on, and writes the meaning of each artifact
(degrees, dims_by_degree, exact generator texts, Molien dimensions) to
``perfbench/reference.json``.  Run it from the root of a checkout::

    python3 perfbench/record_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))
from leafavg import cli  # noqa: E402


def main() -> int:
    names = sorted({
        job.config for w in wl.WORKLOADS.values() for job in w.jobs if job.task == "generators"
    })
    reference = {}
    with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR) as tmp:
        for name in names:
            out = Path(tmp) / name
            if cli.main(["generators", "--config", str(wl.config_path(name)), "--out", str(out)]) != 0:
                print(f"generators failed on {name}", file=sys.stderr)
                return 1
            reference[name] = wl.generator_summary(json.loads((out / "generators.json").read_text()))
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
