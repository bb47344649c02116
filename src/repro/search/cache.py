"""A bounded LRU cache for per-target distance maps.

The engine computes one backward distance map per query target
and reuses it across sources (the paper's multi-source trick) and across
queries. The original implementation kept every map forever — fine for a
batch experiment, a slow leak for a long-lived server answering queries
over many targets. This cache bounds the retained maps to the most
recently used ``max_targets``. It knows nothing of graphs: after an edit
the engine decides which maps the changed edges can move and keeps the
rest with :meth:`LRUDistanceCache.retain`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Optional, TypeVar

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
        """Drop every entry (the graph was recompiled: ids moved)."""
        self._entries.clear()

    def retain(self, keep: Callable[[V], bool]) -> None:
        """Drop every entry whose value ``keep`` rejects; survivors keep
        their LRU positions, and hit and miss counts do not move. If
        ``keep`` raises, only the entries it already accepted remain."""
        entries = list(self._entries.items())
        self._entries.clear()
        for target, value in entries:
            if keep(value):
                self._entries[target] = value

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "max_targets": self.max_targets,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
