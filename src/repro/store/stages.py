"""Stage file: the inputs of the incremental pipeline.

A snapshot (`.snap`) persists the *outputs* of a build — registry and
mined jungloids — which is enough to answer queries after a restart but
not enough to update incrementally: the corpus texts would be gone. The
stage file (``<snapshot>.stages``) persists the pipeline's inputs (the
texts and the load discipline, :func:`repro.pipeline.stages_to_dict`)
as plain compact JSON, written atomically. It holds nothing derived: a
restart parses, resolves, mines and analyzes the texts again.

The file has no envelope of its own. :func:`save_stage_sidecar` returns
the SHA-256 of the bytes it wrote, the snapshot saved next records it in
its manifest (``stages_sha256``), and :func:`try_load_stage_sidecar`
compares the bytes it reads against the loaded manifest's digest before
parsing them. That one digest covers a torn or edited file and a file
written for another generation — say the newer one, after recovery fell
back to ``<path>.prev``.

A missing, damaged or foreign file makes the loader return ``None``
and the caller serve the snapshot alone or rebuild — it can cost time,
never an answer.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .snapshot import atomic_write_bytes, payload_digest

#: Appended to the snapshot filename to name its stage file.
STAGE_SIDECAR_SUFFIX = ".stages"


def stage_sidecar_path(snapshot_path: os.PathLike) -> Path:
    path = Path(snapshot_path)
    return path.with_name(path.name + STAGE_SIDECAR_SUFFIX)


def save_stage_sidecar(snapshot_path: os.PathLike, data: dict) -> str:
    """Atomically write pipeline stage artifacts next to a snapshot;
    returns the SHA-256 its manifest must record."""
    payload = json.dumps(data, separators=(",", ":")).encode("utf-8")
    atomic_write_bytes(stage_sidecar_path(snapshot_path), payload)
    return payload_digest(payload)


def try_load_stage_sidecar(
    snapshot_path: os.PathLike, stages_sha256: Optional[str]
) -> Optional[dict]:
    """The stage artifacts whose bytes hash to ``stages_sha256`` (the
    loaded manifest's), or ``None`` when the file is absent, damaged or
    not that generation's, or the manifest records none."""
    if stages_sha256 is None:
        return None
    try:
        raw = stage_sidecar_path(snapshot_path).read_bytes()
    except OSError:
        return None
    if payload_digest(raw) != stages_sha256:
        return None
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None
