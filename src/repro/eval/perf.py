"""Performance measurements (Section 5's implementation notes).

The paper reports, for its 2.26 GHz Pentium 4: graph representation 8 MB
on disk / 24 MB in memory, 1.5 s load time, every query under 1.1 s and
85% under 0.5 s. We measure the same quantities for our implementation:
serialized bundle size, load (deserialize + rebuild) time, peak build
memory via ``tracemalloc``, and the Table-1 query latency distribution.
Absolute values differ (different decade, language, and API size); the
qualitative claims — sub-second queries, load far cheaper than mining —
are what the benchmark asserts.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from ..core import Prospector
from ..graph import bundle_to_json, load_graph_from_json
from .problems import TABLE1_PROBLEMS, Table1Problem


@dataclass
class PerfReport:
    bundle_bytes: int = 0
    load_seconds: float = 0.0
    build_peak_bytes: int = 0
    query_seconds: List[float] = field(default_factory=list)

    @property
    def max_query_seconds(self) -> float:
        return max(self.query_seconds) if self.query_seconds else 0.0

    @property
    def mean_query_seconds(self) -> float:
        if not self.query_seconds:
            return 0.0
        return sum(self.query_seconds) / len(self.query_seconds)

    def fraction_under(self, seconds: float) -> float:
        if not self.query_seconds:
            return 0.0
        return sum(1 for t in self.query_seconds if t < seconds) / len(self.query_seconds)

    def format_report(self) -> str:
        return "\n".join(
            [
                f"serialized bundle: {self.bundle_bytes / 1024:.1f} KiB"
                " (paper: 8 MB for the full J2SE+Eclipse graph)",
                f"load (parse + rebuild graph): {self.load_seconds * 1000:.1f} ms"
                " (paper: 1.5 s)",
                f"peak build memory: {self.build_peak_bytes / (1024 * 1024):.1f} MiB"
                " (paper: 24 MB resident)",
                f"queries: mean {self.mean_query_seconds * 1000:.1f} ms,"
                f" max {self.max_query_seconds * 1000:.1f} ms"
                " (paper: all < 1.1 s)",
                f"fraction under 0.5 s: {self.fraction_under(0.5) * 100:.0f}%"
                " (paper: 85%)",
            ]
        )


def measure_bundle(prospector: Prospector) -> Tuple[str, int]:
    """Serialize the registry + mined jungloids; return (json, size)."""
    text = bundle_to_json(prospector.registry, prospector.mined_jungloids)
    return text, len(text.encode("utf-8"))


def measure_load(bundle_json: str, repeats: int = 3) -> float:
    """Best-of-N time to rebuild the jungloid graph from the bundle."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        load_graph_from_json(bundle_json)
        best = min(best, time.perf_counter() - start)
    return best


def measure_build_memory(build: Callable[[], object]) -> int:
    """Peak tracemalloc bytes while running ``build()``."""
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def measure_queries(
    prospector: Prospector, problems: Sequence[Table1Problem] = TABLE1_PROBLEMS
) -> List[float]:
    times = []
    for problem in problems:
        _, seconds = prospector.timed_query(problem.t_in, problem.t_out)
        times.append(seconds)
    return times


def run_perf(
    prospector: Prospector,
    build: Callable[[], object],
    problems: Sequence[Table1Problem] = TABLE1_PROBLEMS,
) -> PerfReport:
    """The full Section-5 measurement suite."""
    report = PerfReport()
    bundle_json, report.bundle_bytes = measure_bundle(prospector)
    report.load_seconds = measure_load(bundle_json)
    report.build_peak_bytes = measure_build_memory(build)
    report.query_seconds = measure_queries(prospector, problems)
    return report


# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------

def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest-rank) of ``samples``; 0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), int(round(p / 100.0 * len(ordered) + 0.5))))
    return ordered[rank - 1]
