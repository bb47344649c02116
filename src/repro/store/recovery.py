"""The snapshot recovery ladder and its diagnostics report.

Loading a persisted graph mirrors the query-side degradation of
:mod:`repro.robustness`: never crash, descend rungs, and account
honestly for what happened. The ladder, in order of preference:

1. ``current-snapshot`` — verify and load ``<path>``;
2. ``previous-generation`` — verify and load ``<path>.prev``, the
   generation rotated aside by the last save;
3. ``rebuild-from-corpus`` — build a fresh instance from the corpus.

This module holds the two file rungs: :func:`load_with_recovery`
returns the first generation that loads, or ``None``. The rebuild rung
builds an instance, not a file, so the instance layer owns it
(:meth:`repro.core.Prospector.from_snapshot`, with bounded retry and
exponential backoff) and records its attempts here.

Every attempt — successful or not — lands in a
:class:`StoreDiagnostics`, the persistence-side sibling of
:class:`~repro.robustness.CorpusDiagnostics`: structured fault records
plus the rung that finally produced an answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import SnapshotError, SnapshotReadError
from .snapshot import LoadedSnapshot, SnapshotStore

#: Ladder rung names, best first.
RUNG_CURRENT = "current-snapshot"
RUNG_PREVIOUS = "previous-generation"
RUNG_REBUILD = "rebuild-from-corpus"
STORE_LADDER: Tuple[str, ...] = (RUNG_CURRENT, RUNG_PREVIOUS, RUNG_REBUILD)

#: Stages at which a rung can fail.
STAGE_READ = "read"
STAGE_VERIFY = "verify"
STAGE_REBUILD = "rebuild"
#: The loaded snapshot's header ``analysis`` section failed its
#: manifest digest or failed to decode; the load serves without it.
STAGE_ANALYSIS = "analysis"


@dataclass(frozen=True)
class StoreFault:
    """One failed attempt on the ladder: where, at what stage, and why."""

    rung: str
    stage: str
    error: str

    def __str__(self) -> str:
        return f"{self.rung} [{self.stage}]: {self.error}"


@dataclass
class StoreDiagnostics:
    """Everything the store tried while producing (or failing to produce)
    a usable graph bundle."""

    faults: List[StoreFault] = field(default_factory=list)
    #: The rung that finally answered; ``None`` while/if none has.
    rung_used: Optional[str] = None
    #: Rebuild attempts actually made (0 if that rung was never reached).
    rebuild_attempts: int = 0

    @property
    def ok(self) -> bool:
        """True when the current snapshot loaded cleanly, first try."""
        return self.rung_used == RUNG_CURRENT and not self.faults

    @property
    def degraded(self) -> bool:
        return not self.ok

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    def record(self, rung: str, stage: str, error: object) -> StoreFault:
        fault = StoreFault(rung=rung, stage=stage, error=str(error))
        self.faults.append(fault)
        return fault

    def faults_for(self, rung: str) -> List[StoreFault]:
        return [f for f in self.faults if f.rung == rung]

    def summary(self) -> str:
        if self.rung_used is None:
            tried = {fault.rung for fault in self.faults}
            if len(tried) <= 1:
                head = "snapshot damaged"
            else:
                head = f"store failed: {len(tried)} rung(s) exhausted"
        elif self.ok:
            head = "store ok: current snapshot loaded"
        elif self.rung_used == RUNG_CURRENT:
            # The current rung's only faults are refused analysis sections.
            head = "store degraded: current snapshot loaded without its analysis section"
        else:
            head = f"store degraded: recovered via {self.rung_used}"
        lines = [head]
        lines.extend(f"  {fault}" for fault in self.faults)
        return "\n".join(lines)


def _load_rung(
    store: SnapshotStore, which: str, diagnostics: StoreDiagnostics
) -> Optional[LoadedSnapshot]:
    """Load one generation, recording the outcome in ``diagnostics``.

    Returns ``None`` (after recording a fault) when the generation fails
    to read, verify or audit. A loaded generation becomes the rung used;
    a refused ``analysis`` section is recorded as a fault of that rung.
    """
    rung = RUNG_CURRENT if which == "current" else RUNG_PREVIOUS
    try:
        loaded = store.load(which=which)
    except SnapshotError as exc:
        stage = STAGE_READ if isinstance(exc, SnapshotReadError) else STAGE_VERIFY
        diagnostics.record(rung, stage, exc)
        return None
    diagnostics.rung_used = rung
    if loaded.analysis_fault is not None:
        diagnostics.record(rung, STAGE_ANALYSIS, loaded.analysis_fault)
    return loaded


def load_with_recovery(
    store: SnapshotStore, diagnostics: StoreDiagnostics
) -> Optional[LoadedSnapshot]:
    """The file rungs of the ladder: the current generation, then
    ``.prev``. Returns the first that loads, or ``None`` when both fail
    (their faults are in ``diagnostics``)."""
    for which in ("current", "previous"):
        loaded = _load_rung(store, which, diagnostics)
        if loaded is not None:
            return loaded
    return None


def verify_snapshot(store: SnapshotStore, which: str = "current") -> StoreDiagnostics:
    """Run one generation through the full load pipeline (read, header,
    checksum, parse, audit) and report instead of raising.

    ``diagnostics.faults`` is empty iff the generation is sound.
    """
    diagnostics = StoreDiagnostics()
    _load_rung(store, which, diagnostics)
    return diagnostics
