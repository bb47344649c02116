"""PROSPECTOR benchmark: one command, three workloads.

    python3 perfbench/run.py --workload scale-query --seed 3 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) in this process with one
closed-loop client, checks every answer, and prints the metrics named in
``BENCHMARK.json`` as the last line of standard output: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it gives the sample counts and the failed fraction.
Exits 1 when an answer check failed, the serving instance was lost or a
traced layer never fired, and 2 when the program sources are not next
to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("table1-warm", "scale-query", "scale-edit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="PROSPECTOR benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program sources are missing: {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from tracer import LayerTracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    work_root = ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    harness = workloads.Harness(args.workload, args.seconds, args.seed, tracer, work)
    aborted = False
    try:
        workloads.WORKLOADS[args.workload](harness)
    except workloads.Aborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        aborted = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
        if tracer is not None:
            tracer.uninstall()

    for failure in harness.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if aborted:
        return 1
    if tracer is not None and tracer.silent_sites():
        print(
            "error: traced sites never fired: " + ", ".join(tracer.silent_sites()),
            file=sys.stderr,
        )
        return 1
    metrics = harness.per_layer() if tracer is not None else harness.end_to_end()
    if {name: unit for name, (_, unit) in metrics.items()} != declared:
        print("error: the metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    print(
        f"{args.workload} seed {args.seed}: {len(harness.query_s)} query samples,"
        f" {harness.batch_queries} batched queries, {len(harness.update_s)} updates,"
        f" {len(harness.restart_s)} restarts; failed {harness.failed}/{harness.attempted}"
        f" (failed_fraction {harness.failed / max(1, harness.attempted):.4f})"
    )
    print(
        json.dumps(
            {
                "correct": harness.failed == 0,
                "attempted": harness.attempted,
                "failed": harness.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if harness.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
