"""The snapshot recovery ladder and its diagnostics report.

Loading a persisted graph mirrors PR 1's query-side degradation: never
crash, descend rungs, and account honestly for what happened. The
ladder, in order of preference:

1. ``current-snapshot`` — verify and load ``<path>``;
2. ``previous-generation`` — verify and load ``<path>.prev``, the
   generation rotated aside by the last save;
3. ``rebuild-from-corpus`` — call the caller-supplied ``rebuild()``
   with bounded retry and exponential backoff (source trees are read
   over the same flaky filesystems snapshots are).

Every attempt — successful or not — lands in a
:class:`StoreDiagnostics`, the persistence-side sibling of
:class:`~repro.robustness.CorpusDiagnostics`: structured fault records
plus the rung that finally produced an answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..graph import JungloidGraph
from ..jungloids import Jungloid
from ..typesystem import TypeRegistry
from .errors import SnapshotError, SnapshotReadError, StoreRecoveryError
from .snapshot import LoadedSnapshot, SnapshotManifest, SnapshotStore

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

#: A corpus rebuild: returns ``(registry, mined)`` or raises.
Rebuild = Callable[[], Tuple[TypeRegistry, Sequence[Jungloid]]]
#: Injectable sleep for deterministic backoff tests.
Sleep = Callable[[float], None]


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
    #: Schema version a successful load was migrated from, if any.
    migrated_from: Optional[int] = None
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
        if self.migrated_from is not None:
            head += f" (migrated from schema v{self.migrated_from})"
        lines = [head]
        lines.extend(f"  {fault}" for fault in self.faults)
        return "\n".join(lines)


@dataclass(frozen=True)
class RecoveredStore:
    """The ladder's product: a usable bundle plus the account of how."""

    registry: TypeRegistry
    mined: Tuple[Jungloid, ...]
    diagnostics: StoreDiagnostics
    manifest: Optional[SnapshotManifest] = None
    #: Serialized cast-verdict index carried by the snapshot, if any
    #: (``None`` after a rebuild or a pre-v3 migration), undecoded.
    analysis: Optional[object] = None
    #: The graph the load audit built, with :attr:`public_only`
    #: (``None`` after a rebuild).
    graph: Optional[JungloidGraph] = None

    @property
    def rung_used(self) -> Optional[str]:
        return self.diagnostics.rung_used

    @property
    def public_only(self) -> bool:
        """The manifest's graph flavour (legacy bundles were public-only)."""
        return self.manifest.public_only if self.manifest else True


def load_with_recovery(
    store: SnapshotStore,
    rebuild: Optional[Rebuild] = None,
    max_rebuild_attempts: int = 3,
    backoff_ms: float = 50.0,
    sleep: Optional[Sleep] = None,
    diagnostics: Optional[StoreDiagnostics] = None,
) -> RecoveredStore:
    """Descend the ladder until a rung yields a verified bundle.

    Raises :class:`StoreRecoveryError` (carrying the diagnostics) only
    when the current snapshot, the previous generation, and every
    bounded rebuild attempt all fail.
    """
    diag = diagnostics if diagnostics is not None else StoreDiagnostics()
    sleep = sleep if sleep is not None else time.sleep

    for rung, which in ((RUNG_CURRENT, "current"), (RUNG_PREVIOUS, "previous")):
        try:
            loaded = store.load(which=which)
        except SnapshotError as exc:
            stage = STAGE_READ if isinstance(exc, SnapshotReadError) else STAGE_VERIFY
            diag.record(rung, stage, exc)
            continue
        diag.rung_used = rung
        diag.migrated_from = loaded.migrated_from
        if loaded.analysis_fault is not None:
            diag.record(rung, STAGE_ANALYSIS, loaded.analysis_fault)
        return RecoveredStore(
            registry=loaded.registry,
            mined=loaded.mined,
            diagnostics=diag,
            manifest=loaded.manifest,
            analysis=None if loaded.analysis_fault is not None else loaded.analysis,
            graph=loaded.graph,
        )

    if rebuild is not None:
        for attempt in range(max(1, int(max_rebuild_attempts))):
            diag.rebuild_attempts = attempt + 1
            try:
                registry, mined = rebuild()
            except Exception as exc:  # noqa: BLE001 — any rebuild failure descends
                diag.record(
                    RUNG_REBUILD, STAGE_REBUILD, f"attempt {attempt + 1}: {exc}"
                )
                if attempt + 1 < max(1, int(max_rebuild_attempts)):
                    sleep(backoff_ms * (2 ** attempt) / 1000.0)
                continue
            diag.rung_used = RUNG_REBUILD
            return RecoveredStore(
                registry=registry, mined=tuple(mined), diagnostics=diag
            )

    raise StoreRecoveryError(
        "snapshot recovery exhausted:\n" + diag.summary(), diagnostics=diag
    )


def verify_snapshot(store: SnapshotStore, which: str = "current") -> StoreDiagnostics:
    """Run one generation through the full load pipeline (read, header,
    checksum, parse, audit) and report instead of raising.

    ``diagnostics.faults`` is empty iff the generation is sound.
    """
    diag = StoreDiagnostics()
    rung = RUNG_CURRENT if which == "current" else RUNG_PREVIOUS
    try:
        loaded = store.load(which=which)
    except SnapshotError as exc:
        stage = STAGE_READ if isinstance(exc, SnapshotReadError) else STAGE_VERIFY
        diag.record(rung, stage, exc)
        return diag
    diag.rung_used = rung
    diag.migrated_from = loaded.migrated_from
    if loaded.analysis_fault is not None:
        diag.record(rung, STAGE_ANALYSIS, loaded.analysis_fault)
    return diag


def repair(
    store: SnapshotStore,
    rebuild: Optional[Rebuild] = None,
    max_rebuild_attempts: int = 3,
    backoff_ms: float = 50.0,
    sleep: Optional[Sleep] = None,
) -> RecoveredStore:
    """Recover via the ladder, then rewrite the current snapshot unless
    it loaded cleanly (a refused ``analysis`` section is dropped).

    The rewrite uses ``rotate=False``: when recovery came *from* the
    previous generation, rotating the damaged current file over it would
    destroy the only good copy. It reuses the graph the load audit built
    and keeps the loaded manifest's ``stages_sha256``, so a stage file
    that belongs to the recovered generation stays adopted.
    """
    recovered = load_with_recovery(
        store,
        rebuild=rebuild,
        max_rebuild_attempts=max_rebuild_attempts,
        backoff_ms=backoff_ms,
        sleep=sleep,
    )
    if not recovered.diagnostics.ok:
        manifest = recovered.manifest
        store.save(
            recovered.registry,
            recovered.mined,
            graph=recovered.graph,
            public_only=recovered.public_only,
            rotate=False,
            analysis=recovered.analysis,
            stages_sha256=manifest.stages_sha256 if manifest is not None else None,
        )
    return recovered
