"""Query outcomes: results plus an honest account of how they were made.

A resilient engine never silently drops work. When a deadline expires or
a fault is isolated mid-search, the engine still answers — but the
answer travels inside a :class:`QueryOutcome` that says *degraded* and
carries structured :class:`DegradationReason` records naming the ladder
rung and the cause. Callers (CLI, completion UI) decide how loudly to
surface that.

The degradation ladder, in order of preference:

1. ``full-window`` — the paper's ``m + extra_cost`` search window;
2. ``zero-extra-window`` — only cheapest-cost paths (``extra_cost=0``);
3. ``shortest-path-only`` — a single greedy shortest path per source,
   reconstructed from the distance map in O(path length).

Rung 3 always completes, so a budgeted query always returns *something*
ranked rather than raising or hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence, Tuple

#: Ladder rung names, best first.
RUNG_FULL_WINDOW = "full-window"
RUNG_ZERO_EXTRA = "zero-extra-window"
RUNG_SHORTEST_PATH = "shortest-path-only"
DEGRADATION_LADDER: Tuple[str, ...] = (
    RUNG_FULL_WINDOW,
    RUNG_ZERO_EXTRA,
    RUNG_SHORTEST_PATH,
)

#: Reason codes.
REASON_DEADLINE = "deadline-expired"
REASON_FAULT = "search-fault"


@dataclass(frozen=True)
class DegradationReason:
    """One structured account of why an answer is not the full answer."""

    code: str  #: :data:`REASON_DEADLINE` or :data:`REASON_FAULT`
    rung: str  #: the ladder rung that was cut short
    detail: str = ""

    def __str__(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.code} at {self.rung}{suffix}"


@dataclass(frozen=True)
class QueryOutcome:
    """Ranked results plus degradation metadata for one query."""

    results: Tuple[Any, ...] = ()
    degraded: bool = False
    reasons: Tuple[DegradationReason, ...] = ()
    #: Ladder rungs actually exercised, in execution order.
    rungs: Tuple[str, ...] = (RUNG_FULL_WINDOW,)
    elapsed_ms: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.degraded

    @property
    def reason(self) -> Optional[DegradationReason]:
        """The first (most significant) degradation reason, if any."""
        return self.reasons[0] if self.reasons else None

    @property
    def result_count(self) -> int:
        return len(self.results)

    def with_results(self, results: Sequence[Any]) -> "QueryOutcome":
        """The same outcome carrying re-packaged results."""
        return replace(self, results=tuple(results))

    def summary(self) -> str:
        """One line for logs / CLI notices."""
        status = "degraded" if self.degraded else "ok"
        parts = [f"{status}, {len(self.results)} result(s)"]
        if self.elapsed_ms is not None:
            parts.append(f"{self.elapsed_ms:.1f} ms")
        if self.reasons:
            parts.append(str(self.reasons[0]))
        return "; ".join(parts)
