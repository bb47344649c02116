"""Atomic, checksummed snapshots of the jungloid graph bundle.

The paper ships its mined graph as a single on-disk artifact (8 MB,
loaded in 1.5 s); a production service restarting under traffic depends
on that artifact being *loadable* after any crash. This module gives the
JSON bundle of :mod:`repro.graph.serialize` a durable envelope:

* **Layout** — a snapshot file is one compact JSON header line
  (``{"format": "prospector-snapshot", "schema_version": 5,
  "manifest": {...}}``) followed by the raw bundle JSON bytes. Keeping
  the payload as verbatim bytes (not re-embedded JSON) means the
  manifest's SHA-256 can be checked before any parsing happens, so a
  torn write or bit flip is caught at the cheapest possible point.
* **Atomicity** — :func:`atomic_write_bytes` writes a temp file in the
  same directory, fsyncs it, and ``os.replace``\\ s it over the target,
  then fsyncs the directory; readers never observe a half-written file.
* **Generations** — saving rotates the existing snapshot to
  ``<path>.prev``, so one good generation always survives a save that
  crashes between rotate and replace.
* **Migration** — schema version 1 is a bare ``prospector-bundle-v1``
  JSON file (what ``dump-bundle`` writes); :meth:`SnapshotStore.load`
  recognizes and upgrades it in memory, recording the migration.
  Version 2 is the headered format without the optional ``analysis``
  key; version 3 may carry the serialized cast-verdict index in the
  header, leaving the payload bytes untouched. Version 4 also records
  the section's digest in the manifest (``analysis_sha256``, over its
  canonical JSON), so an edited section is caught too. Version 5
  (current) also records the SHA-256 of the stage file saved with it
  (``stages_sha256``; see :mod:`.stages`), so the manifest alone binds
  the snapshot to its stage file.
  v1/v2 files load as migrations with ``analysis=None`` (verdicts are
  recomputed lazily); a v3 file loads as a migration with its section
  unchecked; a v4 file loads as a migration whose stage file is not
  adopted.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from ..graph import (
    BundleFormatError,
    JungloidGraph,
    bundle_from_json,
    bundle_to_json,
)
from ..jungloids import Jungloid
from ..typesystem import TypeRegistry
from .audit import audit_bundle
from .errors import (
    SnapshotCorruptError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotReadError,
)

#: Magic string in the header line.
SNAPSHOT_FORMAT = "prospector-snapshot"
#: Current schema version. Version 1 is the bare legacy bundle;
#: version 2 lacks the optional header ``analysis`` key; version 3
#: carries it without a digest; version 4 lacks ``stages_sha256``.
SCHEMA_VERSION = 5
#: The first version whose manifest covers the ``analysis`` section.
ANALYSIS_DIGEST_VERSION = 4
#: Suffix of the retained previous generation.
PREVIOUS_SUFFIX = ".prev"

#: Injectable reader, for flaky-filesystem fault injection in tests.
ReadBytes = Callable[[Path], bytes]


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def atomic_write_bytes(path: os.PathLike, data: bytes) -> None:
    """Crash-safe write: temp file + fsync + rename + directory fsync.

    After this returns the file is durably either its old content or
    ``data``, never a mixture — the invariant the whole recovery story
    rests on.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failure above left the temp file behind
            try:
                tmp.unlink()
            except OSError:
                pass
    try:
        dir_fd = os.open(str(path.parent or "."), os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_text(path: os.PathLike, text: str, encoding: str = "utf-8") -> None:
    """Text-mode convenience over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotManifest:
    """What the writer knew about the payload, verified at load time."""

    payload_sha256: str
    payload_bytes: int
    type_count: int
    mined_count: int
    node_count: int
    edge_count: int
    public_only: bool = True
    created_unix: float = 0.0
    #: :func:`analysis_digest` of the header's ``analysis`` section;
    #: ``None`` when the snapshot carries none.
    analysis_sha256: Optional[str] = None
    #: SHA-256 of the stage file saved with this snapshot; ``None``
    #: when it was saved without one (or predates schema 5).
    stages_sha256: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "payload_sha256": self.payload_sha256,
            "payload_bytes": self.payload_bytes,
            "type_count": self.type_count,
            "mined_count": self.mined_count,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "public_only": self.public_only,
            "created_unix": self.created_unix,
            "analysis_sha256": self.analysis_sha256,
            "stages_sha256": self.stages_sha256,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SnapshotManifest":
        digests = {key: data.get(key) for key in ("analysis_sha256", "stages_sha256")}
        for key, digest in digests.items():
            if digest is not None and not isinstance(digest, str):
                raise SnapshotFormatError(f"manifest field malformed: {key} {digest!r}")
        try:
            return cls(
                payload_sha256=str(data["payload_sha256"]),
                payload_bytes=int(data["payload_bytes"]),
                type_count=int(data["type_count"]),
                mined_count=int(data["mined_count"]),
                node_count=int(data["node_count"]),
                edge_count=int(data["edge_count"]),
                public_only=bool(data.get("public_only", True)),
                created_unix=float(data.get("created_unix", 0.0)),
                **digests,
            )
        except KeyError as exc:
            raise SnapshotFormatError(f"manifest missing key {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"manifest field malformed: {exc}") from exc


@dataclass(frozen=True)
class LoadedSnapshot:
    """A verified, parsed, audited snapshot, ready to serve."""

    registry: TypeRegistry
    mined: Tuple[Jungloid, ...]
    manifest: Optional[SnapshotManifest]  #: None for migrated legacy bundles
    migrated_from: Optional[int]  #: source schema version, if migrated
    path: Path
    #: The graph the audit built (with :attr:`public_only`), so a loader
    #: can serve from it instead of building it again.
    graph: JungloidGraph
    #: The header's serialized cast-verdict index (schema v3+), as read:
    #: the loader that decodes it rejects a malformed one. ``None`` when
    #: the snapshot predates the analysis or was saved without one.
    analysis: Optional[object] = None
    #: Why the ``analysis`` section fails the manifest's digest (schema
    #: v4); ``None`` when it matches or the schema predates the digest.
    #: A section with a fault must not be used.
    analysis_fault: Optional[str] = None

    @property
    def public_only(self) -> bool:
        """The manifest's graph flavour (legacy bundles were public-only)."""
        return self.manifest.public_only if self.manifest else True


def payload_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def analysis_digest(section: object) -> str:
    """SHA-256 of a header ``analysis`` section's canonical JSON (sorted
    keys, no whitespace), so re-serializing the header keeps it."""
    canonical = json.dumps(section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _analysis_fault(manifest: SnapshotManifest, section: object) -> Optional[str]:
    """Why ``section`` fails ``manifest.analysis_sha256``, or ``None``."""
    expected = manifest.analysis_sha256
    if section is None:
        if expected is None:
            return None
        return "analysis section unusable: the manifest digests a section the header lacks"
    if expected is None:
        return "analysis section unusable: the manifest has no analysis_sha256"
    actual = analysis_digest(section)
    if actual != expected:
        return (
            "analysis section unusable: SHA-256 mismatch"
            f" (expected {expected[:12]}…, got {actual[:12]}…)"
        )
    return None


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------

class SnapshotStore:
    """One snapshot file plus its retained previous generation.

    ``read_bytes`` is injectable so tests can simulate a flaky
    filesystem (:class:`repro.robustness.faults.FlakyFileSystem`).
    """

    def __init__(self, path: os.PathLike, read_bytes: Optional[ReadBytes] = None):
        self.path = Path(path)
        self._read_bytes: ReadBytes = read_bytes or (lambda p: Path(p).read_bytes())

    @property
    def previous_path(self) -> Path:
        return self.path.with_name(self.path.name + PREVIOUS_SUFFIX)

    def _path_for(self, which: str) -> Path:
        if which == "current":
            return self.path
        if which == "previous":
            return self.previous_path
        raise ValueError(f"unknown generation {which!r}")

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------

    def save(
        self,
        registry: TypeRegistry,
        mined: Sequence[Jungloid] = (),
        graph: Optional[JungloidGraph] = None,
        public_only: bool = True,
        rotate: bool = True,
        analysis: Optional[dict] = None,
        stages_sha256: Optional[str] = None,
    ) -> SnapshotManifest:
        """Write an atomic checksummed snapshot; returns its manifest.

        ``rotate=True`` keeps the previous on-disk snapshot as
        ``<path>.prev``. Repair passes ``rotate=False`` so rewriting a
        damaged current file never clobbers a good previous generation.
        ``analysis`` is the serialized cast-verdict index
        (:meth:`~repro.analysis.verdicts.CastVerdictIndex.to_dict`); it
        rides in the header under its own manifest digest, so the
        payload checksum is unaffected. ``stages_sha256`` is the digest
        :func:`~repro.store.stages.save_stage_sidecar` returned for the
        stage file written just before.
        """
        mined = list(mined)
        if graph is None:
            graph = JungloidGraph.build(registry, mined, public_only=public_only)
        payload = bundle_to_json(registry, mined).encode("utf-8")
        manifest = SnapshotManifest(
            payload_sha256=payload_digest(payload),
            payload_bytes=len(payload),
            type_count=len(registry),
            mined_count=len(mined),
            node_count=graph.node_count(),
            edge_count=graph.adjacency_edge_count(),
            public_only=public_only,
            created_unix=time.time(),
            analysis_sha256=None if analysis is None else analysis_digest(analysis),
            stages_sha256=stages_sha256,
        )
        header_dict = {
            "format": SNAPSHOT_FORMAT,
            "schema_version": SCHEMA_VERSION,
            "manifest": manifest.to_dict(),
        }
        if analysis is not None:
            header_dict["analysis"] = analysis
        header = json.dumps(header_dict, separators=(",", ":")).encode("utf-8")
        if rotate and self.path.exists():
            os.replace(self.path, self.previous_path)
        atomic_write_bytes(self.path, header + b"\n" + payload)
        return manifest

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def read_raw(self, which: str = "current") -> bytes:
        path = self._path_for(which)
        try:
            return self._read_bytes(path)
        except OSError as exc:
            raise SnapshotReadError(f"cannot read snapshot {path}: {exc}") from exc

    def _split(self, raw: bytes, path: Path) -> Tuple[Optional[dict], bytes]:
        """Split header line from payload; ``None`` header means legacy."""
        if not raw.strip():
            raise SnapshotCorruptError(f"{path}: empty snapshot file")
        newline = raw.find(b"\n")
        head = raw if newline < 0 else raw[:newline]
        try:
            header = json.loads(head.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None, raw
        if not isinstance(header, dict):
            return None, raw
        if header.get("format") != SNAPSHOT_FORMAT:
            return None, raw  # maybe a bare legacy bundle; caller decides
        if newline < 0:
            raise SnapshotCorruptError(f"{path}: header present but payload missing")
        return header, raw[newline + 1 :]

    def load(self, which: str = "current") -> LoadedSnapshot:
        """Read, verify, parse, migrate, and audit one generation.

        Raises a :class:`~repro.store.errors.SnapshotError` subclass on
        the first problem found; :func:`~repro.store.verify_snapshot`
        reports instead of raising.
        """
        path = self._path_for(which)
        raw = self.read_raw(which)
        header, payload = self._split(raw, path)

        if header is None:
            # Legacy rung: the whole file must be a bare v1 bundle.
            try:
                registry, mined = bundle_from_json(raw.decode("utf-8", "strict"))
            except UnicodeDecodeError as exc:
                raise SnapshotCorruptError(f"{path}: undecodable bytes: {exc}") from exc
            except BundleFormatError as exc:
                raise SnapshotCorruptError(f"{path}: {exc}") from exc
            return LoadedSnapshot(
                registry=registry,
                mined=tuple(mined),
                manifest=None,
                migrated_from=1,
                path=path,
                graph=_audited_graph(path, registry, mined, None),
            )

        version = header.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise SnapshotFormatError(f"{path}: bad schema_version {version!r}")
        if version > SCHEMA_VERSION:
            raise SnapshotFormatError(
                f"{path}: schema_version {version} is newer than supported"
                f" {SCHEMA_VERSION}"
            )
        manifest = SnapshotManifest.from_dict(header.get("manifest") or {})
        if len(payload) != manifest.payload_bytes:
            raise SnapshotCorruptError(
                f"{path}: payload is {len(payload)} bytes,"
                f" manifest says {manifest.payload_bytes} (torn write?)"
            )
        digest = payload_digest(payload)
        if digest != manifest.payload_sha256:
            raise SnapshotCorruptError(
                f"{path}: payload SHA-256 mismatch"
                f" (expected {manifest.payload_sha256[:12]}…, got {digest[:12]}…)"
            )
        try:
            registry, mined = bundle_from_json(payload.decode("utf-8"))
        except (UnicodeDecodeError, BundleFormatError) as exc:
            # Checksum passed but the payload is still bad: the writer
            # persisted garbage. Treat as corruption, not a format error.
            raise SnapshotCorruptError(f"{path}: {exc}") from exc
        analysis = header.get("analysis")
        return LoadedSnapshot(
            registry=registry,
            mined=tuple(mined),
            manifest=manifest,
            migrated_from=version if version != SCHEMA_VERSION else None,
            path=path,
            graph=_audited_graph(path, registry, mined, manifest),
            analysis=analysis,
            analysis_fault=(
                _analysis_fault(manifest, analysis)
                if version >= ANALYSIS_DIGEST_VERSION
                else None
            ),
        )

    def exists(self, which: str = "current") -> bool:
        return self._path_for(which).exists()


def _audited_graph(
    path: Path,
    registry: TypeRegistry,
    mined: Sequence[Jungloid],
    manifest: Optional[SnapshotManifest],
) -> JungloidGraph:
    """The full post-load audit, including a graph build so edge
    endpoints and node/edge counts are checked against the manifest.
    Returns that graph."""
    public_only = manifest.public_only if manifest else True
    graph = JungloidGraph.build(registry, mined, public_only=public_only)
    issues = audit_bundle(registry, mined, manifest=manifest, graph=graph)
    if issues:
        raise SnapshotIntegrityError(
            f"{path}: integrity audit found {len(issues)} issue(s):"
            + "".join(f"\n  {issue}" for issue in issues),
            issues=issues,
        )
    return graph
