"""Gate a traced perfbench run on its deterministic work counters.

Usage::

    python3 perfbench/run.py --workload W --seed 7 ... --trace 1 > run.out
    python3 .github/check_perfbench_counters.py W run.out
    python3 .github/check_perfbench_counters.py --update W run.out

``run.out`` is the run's stdout; its last JSON line holds the metrics.
Every metric with unit ``count``, except the time-bounded ``run.*``
sample counts, must equal the value committed for ``W`` in
``perfbench-counters.json`` next to this script; the check exits 1 and
lists each difference otherwise. A change that means to move a counter
rewrites that workload's entry with ``--update``. Wall-clock metrics
are never compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXPECTED = Path(__file__).with_name("perfbench-counters.json")


def counters(run_output: Path) -> dict:
    lines = [l for l in run_output.read_text().splitlines() if l.startswith("{")]
    if not lines:
        raise SystemExit(f"{run_output}: no JSON metrics line")
    metrics = json.loads(lines[-1])["metrics"]
    return {
        name: int(metric["value"]) if float(metric["value"]).is_integer() else metric["value"]
        for name, metric in sorted(metrics.items())
        if metric["unit"] == "count" and not name.startswith("run.")
    }


def main(argv: list) -> int:
    update = "--update" in argv
    args = [a for a in argv if a != "--update"]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    workload, run_output = args[0], Path(args[1])
    actual = counters(run_output)
    expected_all = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if update:
        expected_all[workload] = actual
        EXPECTED.write_text(json.dumps(expected_all, indent=2, sort_keys=True) + "\n")
        print(f"{EXPECTED.name}: wrote {len(actual)} counters for {workload}")
        return 0
    expected = expected_all.get(workload)
    if expected is None:
        print(f"{EXPECTED.name} has no counters for {workload}", file=sys.stderr)
        return 1
    diffs = [
        f"  {name}: expected {expected.get(name)}, got {actual.get(name)}"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    ]
    if diffs:
        print(f"{workload}: {len(diffs)} work counter(s) differ:", file=sys.stderr)
        print("\n".join(diffs), file=sys.stderr)
        return 1
    print(f"{workload}: all {len(expected)} work counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
