"""Stage-artifact sidecar: persisted incremental-pipeline state.

A snapshot (`.snap`) persists the *outputs* of a build — registry and
mined jungloids — which is enough to answer queries after a restart but
not enough to update incrementally: the per-file mined-example cache and
its dependency fingerprints would be gone, forcing `index update` to
re-mine everything. The sidecar (``<snapshot>.stages``) persists exactly
those stage artifacts, with the same envelope discipline as the
snapshot itself: one JSON header line carrying a payload SHA-256,
followed by the verbatim payload bytes, written atomically.

The header also records the ``payload_sha256`` of the snapshot
generation it was saved with. A loader passes the digest of the
generation it actually loaded, and a sidecar written for another
generation — say the newer one, after recovery fell back to
``<path>.prev`` — is refused: its artifacts describe a different corpus.

The sidecar is strictly an accelerator. :func:`try_load_stage_sidecar`
returns ``None`` for a missing, torn, tampered or unbound file, and the
caller falls back to a full rebuild — a damaged sidecar can cost time,
never correctness.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .errors import SnapshotCorruptError, SnapshotError, StageSidecarMismatchError
from .snapshot import ReadBytes, atomic_write_bytes, payload_digest

#: Magic string in the sidecar's header line.
STAGE_SIDECAR_FORMAT = "prospector-stage-sidecar"
#: Current sidecar schema version; version 1 lacked the snapshot binding.
STAGE_SIDECAR_VERSION = 2
#: Appended to the snapshot filename to name its sidecar.
STAGE_SIDECAR_SUFFIX = ".stages"


def stage_sidecar_path(snapshot_path: os.PathLike) -> Path:
    path = Path(snapshot_path)
    return path.with_name(path.name + STAGE_SIDECAR_SUFFIX)


def save_stage_sidecar(
    snapshot_path: os.PathLike, data: dict, snapshot_sha256: str
) -> Path:
    """Atomically persist pipeline stage artifacts next to a snapshot.

    ``snapshot_sha256`` is the manifest payload digest of the snapshot
    generation these artifacts belong to.
    """
    payload = json.dumps(data, separators=(",", ":")).encode("utf-8")
    header = json.dumps(
        {
            "format": STAGE_SIDECAR_FORMAT,
            "schema_version": STAGE_SIDECAR_VERSION,
            "payload_sha256": payload_digest(payload),
            "payload_bytes": len(payload),
            "snapshot_sha256": snapshot_sha256,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    path = stage_sidecar_path(snapshot_path)
    atomic_write_bytes(path, header + b"\n" + payload)
    return path


def load_stage_sidecar(
    snapshot_path: os.PathLike,
    snapshot_sha256: str,
    read_bytes: Optional[ReadBytes] = None,
) -> dict:
    """Load and verify a sidecar; raises on any damage.

    ``FileNotFoundError`` when absent; :class:`SnapshotCorruptError` for
    a torn write, checksum mismatch, or malformed envelope;
    :class:`StageSidecarMismatchError` when the sidecar was saved with a
    snapshot generation other than the one whose manifest payload digest
    is ``snapshot_sha256``.
    """
    path = stage_sidecar_path(snapshot_path)
    reader: ReadBytes = read_bytes or (lambda p: Path(p).read_bytes())
    raw = reader(path)
    newline = raw.find(b"\n")
    if newline < 0:
        raise SnapshotCorruptError(f"{path}: sidecar header line missing")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"{path}: sidecar header unreadable: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != STAGE_SIDECAR_FORMAT:
        raise SnapshotCorruptError(f"{path}: not a stage sidecar")
    version = header.get("schema_version")
    if version != STAGE_SIDECAR_VERSION:
        raise SnapshotCorruptError(f"{path}: unsupported sidecar version {version!r}")
    if header.get("snapshot_sha256") != snapshot_sha256:
        raise StageSidecarMismatchError(
            f"{path}: sidecar belongs to another snapshot generation"
        )
    payload = raw[newline + 1 :]
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotCorruptError(
            f"{path}: sidecar payload is {len(payload)} bytes,"
            f" header says {header.get('payload_bytes')} (torn write?)"
        )
    digest = payload_digest(payload)
    if digest != header.get("payload_sha256"):
        raise SnapshotCorruptError(f"{path}: sidecar payload SHA-256 mismatch")
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"{path}: sidecar payload unparsable: {exc}") from exc
    if not isinstance(data, dict):
        raise SnapshotCorruptError(f"{path}: sidecar payload must be an object")
    return data


def try_load_stage_sidecar(
    snapshot_path: os.PathLike,
    snapshot_sha256: str,
    read_bytes: Optional[ReadBytes] = None,
) -> Optional[dict]:
    """Best-effort sidecar load: ``None`` when absent, damaged or bound
    to another snapshot generation."""
    try:
        return load_stage_sidecar(snapshot_path, snapshot_sha256, read_bytes)
    except (OSError, SnapshotError):
        return None
