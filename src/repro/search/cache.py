"""A bounded LRU cache for per-target distance maps.

The engine computes one backward distance map per query target
and reuses it across sources (the paper's multi-source trick) and across
queries. The original implementation kept every map forever — fine for a
batch experiment, a slow leak for a long-lived server answering queries
over many targets. This cache bounds the retained maps to the most
recently used ``max_targets`` and drops everything when the graph's
``revision`` moves (mined paths grafted in make old distances stale).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generic, Hashable, Iterable, Optional, TypeVar

V = TypeVar("V")

#: Default number of per-target distance maps a long-lived engine keeps.
DEFAULT_MAX_CACHED_TARGETS = 64


class LRUDistanceCache(Generic[V]):
    """Least-recently-used map from query target to its distance map.

    ``max_targets <= 0`` disables caching entirely (every lookup misses),
    which the batch layer uses in tests to prove that target-grouping —
    not this cache — is what shares work across a request batch.
    """

    def __init__(self, max_targets: int = DEFAULT_MAX_CACHED_TARGETS):
        self.max_targets = int(max_targets)
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, target: Hashable) -> bool:
        return target in self._entries

    def get(self, target: Hashable) -> Optional[V]:
        entry = self._entries.get(target)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(target)
        self.hits += 1
        return entry

    def put(self, target: Hashable, value: V) -> None:
        if self.max_targets <= 0:
            return
        self._entries[target] = value
        self._entries.move_to_end(target)
        while len(self._entries) > self.max_targets:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (revision bump: all distances are stale)."""
        self._entries.clear()

    def invalidate(self, targets: "Iterable[Hashable]") -> int:
        """Drop only the entries for ``targets``; returns how many fell.

        Selective alternative to :meth:`clear` for delta graph updates
        that report exactly which query targets went stale (see
        ``SignatureGraph.invalidated_targets_since``). Entries for other
        targets — and their LRU positions and hit statistics — survive.
        """
        dropped = 0
        for target in targets:
            if self._entries.pop(target, None) is not None:
                dropped += 1
        return dropped

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "max_targets": self.max_targets,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
