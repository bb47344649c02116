"""Generalizing example jungloids (Section 4.2, Figure 7).

An extracted example usually carries an unneeded prefix: only a suffix of
the calls establishes the state in which the final downcast succeeds.
Generalization finds, for each example, the **shortest suffix that
distinguishes it from examples ending in different casts** — the paper's
rule: if two examples are ``β.a.α.(T)`` and ``γ.b.α.(U)`` with ``a ≠ b``
and ``T ≠ U``, both must retain their differing elementary plus the
common part ``α``.

The algorithm stores the examples' pre-cast step sequences reversed in a
trie whose nodes record the set of final casts beneath them; an example's
retained suffix ends at the shallowest trie node all of whose examples
share its cast (never shallower than one elementary — a bare downcast
would represent every jungloid with that cast, the catastrophic
overgeneralization of Section 4.1). Cost is ``O(n·k)`` in the total
number of elementary jungloids and cast types, as the paper reports.

The trie is **incremental** (:class:`IncrementalGeneralizer`): cast
occurrences are reference-counted per node, so examples from a re-mined
corpus file can be removed and their replacements inserted without
rebuilding the structure — the incremental pipeline's generalization
stage. :func:`generalize_examples` is the one-shot wrapper over it and
behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..jungloids import ElementaryJungloid, Jungloid
from .extractor import ExampleJungloid

#: Key identifying a downcast for conflict purposes: its output type.
CastKey = str


def _cast_key(step: ElementaryJungloid) -> CastKey:
    return str(step.output_type)


class _TrieNode:
    __slots__ = ("children", "casts")

    def __init__(self):
        self.children: Dict[ElementaryJungloid, "_TrieNode"] = {}
        #: Cast key → number of live examples with that cast beneath here.
        self.casts: Dict[CastKey, int] = {}


@dataclass(frozen=True)
class GeneralizedExample:
    """An example jungloid together with its retained suffix."""

    example: ExampleJungloid
    suffix: Jungloid

    @property
    def trimmed_steps(self) -> int:
        return len(self.example.jungloid) - len(self.suffix)


def _is_casted(example: ExampleJungloid) -> bool:
    steps = example.jungloid.steps
    return bool(steps) and steps[-1].is_downcast


class IncrementalGeneralizer:
    """A reference-counted cast trie supporting insert *and* remove.

    Per-node cast sets become counts so removing an example exactly
    undoes its insertion; whole-trie recomputation is never needed when
    the corpus changes, only re-walking the live examples' suffixes
    (which is the same ``O(n·k)`` pass a fresh build would do, minus the
    structure building).
    """

    def __init__(self, min_precast_steps: int = 1):
        self.min_precast_steps = int(min_precast_steps)
        self._root = _TrieNode()
        self._live = 0

    @property
    def live_examples(self) -> int:
        """Number of casted examples currently inserted."""
        return self._live

    def insert(self, example: ExampleJungloid) -> bool:
        """Add one example's pre-cast path; no-op for cast-free examples."""
        if not _is_casted(example):
            return False
        key = _cast_key(example.jungloid.steps[-1])
        node = self._root
        node.casts[key] = node.casts.get(key, 0) + 1
        for step in reversed(example.jungloid.steps[:-1]):
            child = node.children.get(step)
            if child is None:
                child = _TrieNode()
                node.children[step] = child
            child.casts[key] = child.casts.get(key, 0) + 1
            node = child
        self._live += 1
        return True

    def remove(self, example: ExampleJungloid) -> bool:
        """Exactly undo one prior :meth:`insert` of an equal example.

        Raises :class:`KeyError` when no equal example is live.
        """
        if not _is_casted(example):
            return False
        key = _cast_key(example.jungloid.steps[-1])
        walk: List[Tuple[Optional[_TrieNode], Optional[ElementaryJungloid], _TrieNode]] = [
            (None, None, self._root)
        ]
        node = self._root
        for step in reversed(example.jungloid.steps[:-1]):
            child = node.children.get(step)
            if child is None:
                raise KeyError(f"example was never inserted: {example.jungloid.describe()}")
            walk.append((node, step, child))
            node = child
        if any(n.casts.get(key, 0) <= 0 for _, _, n in walk):
            raise KeyError(f"example was never inserted: {example.jungloid.describe()}")
        for _, _, n in walk:
            n.casts[key] -= 1
            if n.casts[key] == 0:
                del n.casts[key]
        # Prune now-empty nodes from the deep end up.
        for parent, step, child in reversed(walk):
            if parent is None:
                break
            if child.casts or child.children:
                break
            del parent.children[step]
        self._live -= 1
        return True

    def suffix_for(self, example: ExampleJungloid) -> Jungloid:
        """The example's shortest distinguishing suffix under the current trie."""
        pre_cast = example.jungloid.steps[:-1]
        key = _cast_key(example.jungloid.steps[-1])
        node = self._root
        retained: Optional[int] = None
        for depth, step in enumerate(reversed(pre_cast), start=1):
            node = node.children[step]
            if (
                depth >= self.min_precast_steps
                and len(node.casts) == 1
                and key in node.casts
            ):
                retained = depth
                break
        if retained is None:
            retained = len(pre_cast)
        retained = max(retained, min(self.min_precast_steps, len(pre_cast)))
        suffix_steps = pre_cast[len(pre_cast) - retained :] + (example.jungloid.steps[-1],)
        return Jungloid(suffix_steps)

    def generalize(
        self, examples: Iterable[ExampleJungloid]
    ) -> List[GeneralizedExample]:
        """Suffixes for ``examples`` (cast-free ones skipped), in order.

        Every casted example must currently be inserted; conflicts are
        judged against *all* live examples, so callers pass the full
        corpus population here after applying their inserts/removes.
        """
        return [
            GeneralizedExample(e, self.suffix_for(e))
            for e in examples
            if _is_casted(e)
        ]


def generalize_examples(
    examples: Sequence[ExampleJungloid], min_precast_steps: int = 1
) -> List[GeneralizedExample]:
    """Compute the shortest distinguishing suffix of every example.

    ``min_precast_steps`` is the minimum number of pre-cast elementary
    jungloids always retained (default 1: never a bare downcast).
    """
    generalizer = IncrementalGeneralizer(min_precast_steps)
    for example in examples:
        generalizer.insert(example)
    return generalizer.generalize(examples)


def unique_suffixes(generalized: Sequence[GeneralizedExample]) -> List[Jungloid]:
    """Deduplicate retained suffixes (many examples share one idiom)."""
    seen: Set[Tuple[ElementaryJungloid, ...]] = set()
    out: List[Jungloid] = []
    for g in generalized:
        key = g.suffix.steps
        if key not in seen:
            seen.add(key)
            out.append(g.suffix)
    return out
