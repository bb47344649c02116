"""Capture the answer goldens the benchmark checks against.

    python3 perfbench/capture_goldens.py

The goldens pin the ranked answers of the commit they were captured at:
the 20 Table-1 answers with their oracle ranks (18 of 20 found, as the
paper reports) and the digest of the fixed scale-query probe. Capture
again only when a change is meant to alter answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from repro.eval import TABLE1_PROBLEMS  # noqa: E402


def write(name: str, data: dict) -> None:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    path = workloads.GOLDEN_DIR / name
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    live = workloads.bundled_instance()
    problems = []
    for problem in TABLE1_PROBLEMS:
        results = live.query(problem.t_in, problem.t_out)
        problems.append(
            {
                "id": problem.id,
                "rank": workloads.table1_rank(problem, results),
                "answer": list(workloads.answer_of(results)),
            }
        )
    found = sum(1 for p in problems if p["rank"] is not None)
    if found != 18:
        print(f"error: Table 1 finds {found}/20 problems, not 18/20", file=sys.stderr)
        return 1
    write("table1.json", {"problems": problems})

    registry, corpus, _, probe = workloads.scale_query_inputs()
    instance = workloads.scale_query_instance(registry, corpus.texts())
    answers = [workloads.answer_of(instance.query(*pair)) for pair in probe]
    write("scale_query.json", {"probe": [list(p) for p in probe], "digest": workloads.digest(answers)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
