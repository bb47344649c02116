"""Content fingerprints for corpus files.

Every pipeline stage keys its cached per-file artifacts on the SHA-256
of the file's text, so "did this file change?" is a dictionary compare —
no mtimes, no guessing. A no-op rewrite (same bytes) therefore produces
an empty diff and the incremental update does nothing at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple


def fingerprint_text(text: str) -> str:
    """SHA-256 hex digest of a corpus file's content."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_texts(
    texts: Iterable[Tuple[str, str]], known: Mapping[str, Tuple[str, str]] = {}
) -> Dict[str, str]:
    """``source → fingerprint`` for ``(source, text)`` pairs.

    ``known`` maps a source to a ``(text, fingerprint)`` pair hashed
    before: a text that is that very string object keeps its fingerprint.
    Duplicate source names are rejected: the pipeline's caches are keyed
    by source, so two files under one name would silently shadow.
    """
    out: Dict[str, str] = {}
    for source, text in texts:
        if source in out:
            raise ValueError(f"duplicate corpus source name: {source!r}")
        hashed = known.get(source)
        if hashed is not None and hashed[0] is text:
            out[source] = hashed[1]
        else:
            out[source] = fingerprint_text(text)
    return out


@dataclass(frozen=True)
class FingerprintDiff:
    """Which sources appeared, changed content, or vanished."""

    added: Tuple[str, ...]
    changed: Tuple[str, ...]
    removed: Tuple[str, ...]
    unchanged: Tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.changed or self.removed)

    @property
    def touched(self) -> Tuple[str, ...]:
        return self.added + self.changed


def diff_fingerprints(
    old: Dict[str, str], new: Dict[str, str]
) -> FingerprintDiff:
    """Classify every source across two fingerprint maps."""
    added: List[str] = []
    changed: List[str] = []
    unchanged: List[str] = []
    for source, fp in new.items():
        if source not in old:
            added.append(source)
        elif old[source] != fp:
            changed.append(source)
        else:
            unchanged.append(source)
    removed = [source for source in old if source not in new]
    return FingerprintDiff(
        added=tuple(added),
        changed=tuple(changed),
        removed=tuple(removed),
        unchanged=tuple(unchanged),
    )
