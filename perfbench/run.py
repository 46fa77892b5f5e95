"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload advh-h4-ofar --seed 1 --seconds 24 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced runs; ``--trace 1`` reports the per-layer metrics from a traced
run next to an untraced one of the same seed.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the provenance (machine,
source digest, seed, input digest, workers, failed share, tracing
overhead).  A failed correctness check prints ``"correct": false`` and
exits 1; a tree without the ``repro`` sources exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def machine_stanza() -> dict:
    """The machine record ``scripts/bench_engine.py`` writes, plus nproc."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
    }


def source_digest() -> str:
    """Content hash of every file under ``src/repro`` (the checkout has
    no version-control metadata, so the tree itself is the revision)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; sizes the work, which is "
                             "then fixed in cycles and points")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    from repro.engine.simulator import DeadlockError

    trace = bool(args.trace)
    units = declared_metrics(trace)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = workloads.measure(args.workload, args.seed, args.seconds, trace, workdir)
    except (workloads.GateError, DeadlockError, TimeoutError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise SystemExit(f"perfbench: {args.workload} did not measure {missing}")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": workloads.digest_json(result.inputs),
        "source_digest": source_digest(),
        "machine": machine_stanza(),
        "workers": result.workers,
        "failed_share": result.failed / result.attempted,
        "trace_overhead": result.metrics.get("trace.overhead"),
        "details": result.details,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
