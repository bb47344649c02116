"""Durable snapshot store: atomic checksummed persistence + recovery.

The persistence analogue of :mod:`repro.robustness`'s query-side
resilience (see DESIGN.md, "Durable snapshot store"):

* **Atomicity** — :func:`atomic_write_bytes`/:func:`atomic_write_text`
  make every write temp-file + fsync + rename;
* **Integrity** — :class:`SnapshotStore` embeds a manifest (schema
  version, payload SHA-256, type/mined/node/edge counts) and verifies
  it on load; :func:`audit_bundle` re-derives the graph invariants;
* **Recovery** — :func:`load_with_recovery` descends current snapshot →
  previous generation → bounded corpus rebuild, recording every rung in
  a :class:`StoreDiagnostics`.
"""

from .audit import (
    IntegrityIssue,
    KIND_BAD_DOWNCAST,
    KIND_BAD_WIDENING,
    KIND_BROKEN_CHAIN,
    KIND_COUNT_MISMATCH,
    KIND_UNKNOWN_MEMBER,
    KIND_UNRESOLVED_ENDPOINT,
    audit_bundle,
    audit_counts,
    audit_graph,
    audit_mined,
)
from .errors import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotReadError,
    StageSidecarMismatchError,
    StoreRecoveryError,
)
from .recovery import (
    RUNG_CURRENT,
    RUNG_PREVIOUS,
    RUNG_REBUILD,
    STAGE_ANALYSIS,
    STAGE_READ,
    STAGE_REBUILD,
    STAGE_VERIFY,
    STORE_LADDER,
    RecoveredStore,
    StoreDiagnostics,
    StoreFault,
    load_with_recovery,
    repair,
    verify_snapshot,
)
from .stages import (
    STAGE_SIDECAR_FORMAT,
    STAGE_SIDECAR_SUFFIX,
    STAGE_SIDECAR_VERSION,
    load_stage_sidecar,
    save_stage_sidecar,
    stage_sidecar_path,
    try_load_stage_sidecar,
)
from .snapshot import (
    LoadedSnapshot,
    PREVIOUS_SUFFIX,
    SCHEMA_VERSION,
    SNAPSHOT_FORMAT,
    SnapshotManifest,
    SnapshotStore,
    analysis_digest,
    atomic_write_bytes,
    atomic_write_text,
    payload_digest,
)

__all__ = [
    "IntegrityIssue",
    "KIND_BAD_DOWNCAST",
    "KIND_BAD_WIDENING",
    "KIND_BROKEN_CHAIN",
    "KIND_COUNT_MISMATCH",
    "KIND_UNKNOWN_MEMBER",
    "KIND_UNRESOLVED_ENDPOINT",
    "LoadedSnapshot",
    "PREVIOUS_SUFFIX",
    "RUNG_CURRENT",
    "RUNG_PREVIOUS",
    "RUNG_REBUILD",
    "RecoveredStore",
    "SCHEMA_VERSION",
    "SNAPSHOT_FORMAT",
    "STAGE_ANALYSIS",
    "STAGE_READ",
    "STAGE_REBUILD",
    "STAGE_SIDECAR_FORMAT",
    "STAGE_SIDECAR_SUFFIX",
    "STAGE_SIDECAR_VERSION",
    "STAGE_VERIFY",
    "STORE_LADDER",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotManifest",
    "SnapshotReadError",
    "SnapshotStore",
    "StageSidecarMismatchError",
    "StoreDiagnostics",
    "StoreFault",
    "StoreRecoveryError",
    "analysis_digest",
    "atomic_write_bytes",
    "atomic_write_text",
    "audit_bundle",
    "audit_counts",
    "audit_graph",
    "audit_mined",
    "load_stage_sidecar",
    "load_with_recovery",
    "payload_digest",
    "repair",
    "save_stage_sidecar",
    "stage_sidecar_path",
    "try_load_stage_sidecar",
    "verify_snapshot",
]
