"""Typed failures of the snapshot store.

Every way a persisted graph can disappoint a loader gets its own
exception, because the recovery ladder treats them identically (descend
a rung) while diagnostics and tests need to tell them apart. All of
them derive from :class:`SnapshotError`, so "anything wrong with this
snapshot file" is one ``except`` clause.
"""

from __future__ import annotations

from typing import List, Optional


class SnapshotError(Exception):
    """Base class: this snapshot cannot be trusted or used."""


class SnapshotReadError(SnapshotError):
    """The snapshot bytes could not be read (missing file, I/O fault)."""


class SnapshotFormatError(SnapshotError):
    """The file is well-formed but not a snapshot we understand
    (wrong magic, a schema version other than the current one, missing
    manifest key)."""


class SnapshotCorruptError(SnapshotError):
    """The bytes are damaged: unparseable header/payload or a checksum
    mismatch — the torn-write / bit-flip case."""


class SnapshotIntegrityError(SnapshotError):
    """The payload parsed but fails the post-load audit: dangling
    members, broken invariants, or counts that contradict the manifest."""

    def __init__(self, message: str, issues: Optional[List[object]] = None):
        super().__init__(message)
        #: The :class:`~repro.store.audit.IntegrityIssue` records behind
        #: this failure (empty for bare count mismatches).
        self.issues: List[object] = list(issues or [])


class StoreRecoveryError(SnapshotError):
    """Every rung of the recovery ladder failed.

    Carries the :class:`~repro.store.recovery.StoreDiagnostics` so the
    caller can see exactly what was tried and why each rung failed.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
