"""Static-vs-dynamic agreement: scoring the viability analyzer (§4).

The cast-safety analyzer (:mod:`repro.analysis`) predicts, before any
code runs, whether a jungloid's downcasts can succeed. This module
checks those predictions against the mock runtime on the same two
populations the paper's viability claims cover:

1. the top-ranked answers to every Table-1 query, and
2. every example jungloid mined from the corpus.

For each jungloid we compare the static verdict (``INVIABLE`` predicts
a cast failure; ``JUSTIFIED``/``PLAUSIBLE`` predict none) against the
dynamic outcome (``CLASS_CAST`` or not). Two aggregate numbers fall
out: an *agreement rate* per population, and a *soundness* bit — the
analyzer must never stamp ``JUSTIFIED`` on a jungloid that then throws
``ClassCastException`` (a ``PLAUSIBLE`` miss is imprecision; a
``JUSTIFIED`` miss is a bug). The report also times verdict lookups
(verdicts/sec) and, when the prospector carries the staged pipeline,
reads the analyze-stage share of the full build.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis import CastVerdict
from ..core import Prospector
from ..jungloids import Jungloid
from ..runtime import Outcome, Runtime, eclipse_behavior_model
from ..store import atomic_write_text
from .problems import TABLE1_PROBLEMS, Table1Problem


@dataclass
class AgreementReport:
    """Static-verdict vs dynamic-outcome tallies for one population."""

    label: str
    total: int = 0
    agreements: int = 0
    #: ``"<verdict>:<outcome>"`` -> count, e.g. ``"justified:viable"``.
    confusion: Dict[str, int] = field(default_factory=dict)
    #: JUSTIFIED verdicts that dynamically threw ClassCastException.
    soundness_violations: int = 0

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.total if self.total else 1.0

    def add(self, verdict: CastVerdict, outcome: Outcome) -> None:
        predicted_fail = verdict is CastVerdict.INVIABLE
        actual_fail = outcome is Outcome.CLASS_CAST
        self.total += 1
        if predicted_fail == actual_fail:
            self.agreements += 1
        if verdict is CastVerdict.JUSTIFIED and actual_fail:
            self.soundness_violations += 1
        key = f"{verdict.value}:{outcome.value}"
        self.confusion[key] = self.confusion.get(key, 0) + 1

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "total": self.total,
            "agreements": self.agreements,
            "agreement_rate": self.agreement_rate,
            "confusion": dict(sorted(self.confusion.items())),
            "soundness_violations": self.soundness_violations,
        }

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.agreements}/{self.total} agree"
            f" ({self.agreement_rate:.1%})"
        )


@dataclass
class AnalysisEvalReport:
    """The full precision report ``BENCH_analysis.json`` serializes."""

    top_ranked: AgreementReport = field(
        default_factory=lambda: AgreementReport("table1-top-ranked")
    )
    mined_examples: AgreementReport = field(
        default_factory=lambda: AgreementReport("mined-examples")
    )
    #: Distinct witnessed cast pairs in the verdict index.
    witnessed_pairs: int = 0
    #: Verdict lookups per second (composed per-jungloid verdicts).
    verdicts_per_second: float = 0.0
    verdict_lookups_timed: int = 0
    #: Analyze-stage cost as a percentage of the rest of the build
    #: (``analyze_ms / (total_ms - analyze_ms)``); ``None`` when the
    #: prospector has no staged pipeline to read timings from.
    build_overhead_pct: Optional[float] = None
    analyze_ms: Optional[float] = None
    build_total_ms: Optional[float] = None

    @property
    def soundness_ok(self) -> bool:
        """No JUSTIFIED jungloid may dynamically throw ClassCastException."""
        return (
            self.top_ranked.soundness_violations == 0
            and self.mined_examples.soundness_violations == 0
        )

    def to_dict(self) -> dict:
        return {
            "top_ranked": self.top_ranked.to_dict(),
            "mined_examples": self.mined_examples.to_dict(),
            "witnessed_pairs": self.witnessed_pairs,
            "verdicts_per_second": self.verdicts_per_second,
            "verdict_lookups_timed": self.verdict_lookups_timed,
            "build_overhead_pct": self.build_overhead_pct,
            "analyze_ms": self.analyze_ms,
            "build_total_ms": self.build_total_ms,
            "soundness_ok": self.soundness_ok,
        }

    def format_report(self) -> str:
        lines = [str(self.top_ranked), str(self.mined_examples)]
        lines.append(f"witnessed cast pairs: {self.witnessed_pairs}")
        lines.append(
            f"verdict lookups: {self.verdicts_per_second:,.0f}/s"
            f" ({self.verdict_lookups_timed} timed)"
        )
        if self.build_overhead_pct is not None:
            lines.append(
                f"analyze stage: {self.analyze_ms:.2f} ms"
                f" = {self.build_overhead_pct:.1f}% of the rest of the build"
                f" ({self.build_total_ms:.2f} ms total)"
            )
        lines.append(
            "soundness: "
            + ("ok (no JUSTIFIED cast failed)" if self.soundness_ok else "VIOLATED")
        )
        return "\n".join(lines)


def run_analysis_eval(
    prospector: Prospector,
    problems: Sequence[Table1Problem] = TABLE1_PROBLEMS,
    top_k: int = 3,
    runtime: Optional[Runtime] = None,
    timing_rounds: int = 20,
) -> AnalysisEvalReport:
    """Score the static analyzer against the mock runtime.

    Requires a prospector with a mined corpus (the verdict index and the
    mined-example population both come from it).
    """
    runtime = runtime or Runtime(eclipse_behavior_model(prospector.registry))
    report = AnalysisEvalReport()
    if prospector.verdicts is not None:
        report.witnessed_pairs = len(prospector.verdicts)

    judged: List[Jungloid] = []

    for problem in problems:
        for result in prospector.query(problem.t_in, problem.t_out)[:top_k]:
            verdict = prospector.verify(result.jungloid).verdict
            outcome = runtime.execute(result.jungloid).outcome
            report.top_ranked.add(verdict, outcome)
            judged.append(result.jungloid)

    if prospector.mining is not None:
        for example in prospector.mining.examples:
            verdict = prospector.verify(example.jungloid).verdict
            outcome = runtime.execute(example.jungloid).outcome
            report.mined_examples.add(verdict, outcome)
            judged.append(example.jungloid)

    # Throughput: composed per-jungloid verdicts over the population just
    # judged, repeated enough rounds to get a measurable interval.
    if judged:
        rounds = max(1, int(timing_rounds))
        start = time.perf_counter()
        for _ in range(rounds):
            for jungloid in judged:
                prospector.verify(jungloid)
        elapsed = time.perf_counter() - start
        report.verdict_lookups_timed = rounds * len(judged)
        if elapsed > 0:
            report.verdicts_per_second = report.verdict_lookups_timed / elapsed

    # Build overhead: the analyze stage's share of the staged build, read
    # from the pipeline's own stage timings.
    pipeline = prospector.pipeline
    if pipeline is not None and pipeline.last_stats is not None:
        timings = pipeline.last_stats.timings
        rest = timings.total_ms - timings.analyze_ms
        report.analyze_ms = timings.analyze_ms
        report.build_total_ms = timings.total_ms
        if rest > 0:
            report.build_overhead_pct = timings.analyze_ms / rest * 100.0

    return report


def _write_bench_json(path: os.PathLike, payload: dict) -> None:
    """Atomically write a ``BENCH_*.json`` payload, mirroring to the
    repo root.

    When ``path`` is the canonical ``benchmarks/out/<name>.json``
    location, an identical copy also lands at the repo root (the
    directory containing ``benchmarks/``) so dashboards and diff tools
    that only look at top-level ``BENCH_*.json`` files stay in sync.
    """
    text = json.dumps(payload, indent=2) + "\n"
    atomic_write_text(path, text)
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    grandparent = os.path.dirname(parent)
    if (
        os.path.basename(parent) == "out"
        and os.path.basename(grandparent) == "benchmarks"
    ):
        root = os.path.dirname(grandparent)
        mirror = os.path.join(root, os.path.basename(os.fspath(path)))
        atomic_write_text(mirror, text)


def write_bench_analysis(report: AnalysisEvalReport, path: os.PathLike) -> None:
    """Emit the numbers as ``BENCH_analysis.json`` (atomic write)."""
    _write_bench_json(path, report.to_dict())
