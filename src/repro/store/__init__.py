"""Durable snapshot store: atomic checksummed persistence + recovery.

The persistence analogue of :mod:`repro.robustness`'s query-side
resilience (see DESIGN.md, "Durable snapshot store"):

* **Atomicity** — :func:`atomic_write_bytes`/:func:`atomic_write_text`
  make every write temp-file + fsync + rename;
* **Integrity** — :class:`SnapshotStore` embeds a manifest (payload,
  analysis and stage-file SHA-256s, type/mined/node/edge counts) and
  verifies it on load; :func:`audit_bundle` re-derives the graph
  invariants. Loading reads schema 5 only: a ``dump-bundle`` export or
  a file of another schema is a fault like a torn one;
* **Recovery** — :func:`load_with_recovery` descends current snapshot →
  previous generation, recording every rung in a
  :class:`StoreDiagnostics`; the corpus-rebuild rung and repair belong
  to the instance layer (:meth:`repro.core.Prospector.from_snapshot`,
  :func:`repro.core.repair_snapshot`).
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
    StoreDiagnostics,
    StoreFault,
    load_with_recovery,
    verify_snapshot,
)
from .stages import (
    STAGE_SIDECAR_SUFFIX,
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
    "SCHEMA_VERSION",
    "SNAPSHOT_FORMAT",
    "STAGE_ANALYSIS",
    "STAGE_READ",
    "STAGE_REBUILD",
    "STAGE_SIDECAR_SUFFIX",
    "STAGE_VERIFY",
    "STORE_LADDER",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotManifest",
    "SnapshotReadError",
    "SnapshotStore",
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
    "load_with_recovery",
    "payload_digest",
    "save_stage_sidecar",
    "stage_sidecar_path",
    "try_load_stage_sidecar",
    "verify_snapshot",
]
