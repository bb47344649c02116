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
stage. An example's suffix depends only on the subtree under its
depth-1 node (its last pre-cast step), so the generalizer remembers each
example's result and recomputes it only when an insert or remove passed
through that node since. Suffixes are canonical per generalizer — equal
suffixes are one object, counted by the examples that use it — so
:func:`unique_suffixes` dedups by identity, and the suffixes whose count
rose from or fell to zero are the graft delta.
:func:`generalize_examples` is the one-shot wrapper over it and behaves
exactly as before.
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
    __slots__ = ("children", "casts", "dirty")

    def __init__(self):
        self.children: Dict[ElementaryJungloid, "_TrieNode"] = {}
        #: Cast key → number of live examples with that cast beneath here.
        self.casts: Dict[CastKey, int] = {}
        #: On a depth-1 node: an insert or remove passed through it since
        #: the last :meth:`IncrementalGeneralizer.generalize`.
        self.dirty = False


class _Canonical:
    """The one suffix object for a step sequence, with its use count."""

    __slots__ = ("suffix", "uses")

    def __init__(self, suffix: Jungloid):
        self.suffix = suffix
        self.uses = 0


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
    the corpus changes. :meth:`generalize` recomputes only the examples
    under a depth-1 node that an insert or remove touched since its last
    call, and reuses the others' results.
    """

    def __init__(self, min_precast_steps: int = 1):
        self.min_precast_steps = int(min_precast_steps)
        self._root = _TrieNode()
        self._live = 0
        #: Depth-1 nodes marked dirty since the last generalize.
        self._dirty: List[_TrieNode] = []
        #: id(example) -> (its result, its depth-1 node, its suffix's slot),
        #: for the examples of the last generalize.
        self._results: Dict[int, Tuple[GeneralizedExample, Optional[_TrieNode], _Canonical]] = {}
        self._canonical: Dict[Tuple[ElementaryJungloid, ...], _Canonical] = {}
        #: Canonical suffixes whose use count rose from zero, in first-use
        #: order, and fell to zero, in the last generalize.
        self.added: Tuple[Jungloid, ...] = ()
        self.removed: Tuple[Jungloid, ...] = ()

    @property
    def live_examples(self) -> int:
        """Number of casted examples currently inserted."""
        return self._live

    def _touch(self, node: _TrieNode) -> None:
        if not node.dirty:
            node.dirty = True
            self._dirty.append(node)

    def insert(self, example: ExampleJungloid) -> bool:
        """Add one example's pre-cast path; no-op for cast-free examples."""
        if not _is_casted(example):
            return False
        key = _cast_key(example.jungloid.steps[-1])
        root = node = self._root
        node.casts[key] = node.casts.get(key, 0) + 1
        for step in reversed(example.jungloid.steps[:-1]):
            child = node.children.get(step)
            if child is None:
                child = _TrieNode()
                node.children[step] = child
            if node is root:
                self._touch(child)
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
        if len(walk) > 1:
            self._touch(walk[1][2])
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

    def _retained(
        self, example: ExampleJungloid
    ) -> Tuple[Tuple[ElementaryJungloid, ...], Optional[_TrieNode]]:
        """The example's suffix steps under the current trie, and its depth-1 node."""
        steps = example.jungloid.steps
        pre_cast = steps[:-1]
        key = _cast_key(steps[-1])
        node = self._root
        first: Optional[_TrieNode] = None
        retained: Optional[int] = None
        for depth, step in enumerate(reversed(pre_cast), start=1):
            node = node.children[step]
            if first is None:
                first = node
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
        return pre_cast[len(pre_cast) - retained :] + (steps[-1],), first

    def suffix_for(self, example: ExampleJungloid) -> Jungloid:
        """The example's shortest distinguishing suffix under the current trie."""
        return Jungloid(self._retained(example)[0])

    def generalize(
        self, examples: Iterable[ExampleJungloid]
    ) -> List[GeneralizedExample]:
        """Suffixes for ``examples`` (cast-free ones skipped), in order.

        Every casted example must currently be inserted; conflicts are
        judged against *all* live examples, so callers pass the full
        corpus population here after applying their inserts/removes.
        Results of the previous call are reused for examples whose
        depth-1 node no insert or remove touched since; an example not
        passed here loses its result.
        """
        before: Dict[int, Tuple[_Canonical, int]] = {}
        results: Dict[int, Tuple[GeneralizedExample, Optional[_TrieNode], _Canonical]] = {}
        out: List[GeneralizedExample] = []
        for example in examples:
            entry = results.get(id(example))
            if entry is None:
                # An entry holds its example, so no other object has its id.
                entry = self._results.pop(id(example), None)
                if entry is not None and entry[1] is not None and entry[1].dirty:
                    self._use(entry[2], -1, before)
                    entry = None
                if entry is None:
                    if not _is_casted(example):
                        continue
                    steps, first = self._retained(example)
                    slot = self._canonical.get(steps)
                    if slot is None:
                        slot = self._canonical[steps] = _Canonical(Jungloid(steps))
                    self._use(slot, 1, before)
                    entry = (GeneralizedExample(example, slot.suffix), first, slot)
                results[id(example)] = entry
            out.append(entry[0])
        for entry in self._results.values():
            self._use(entry[2], -1, before)
        self._results = results
        for node in self._dirty:
            node.dirty = False
        self._dirty = []
        added: List[Jungloid] = []
        removed: List[Jungloid] = []
        for slot, uses in before.values():
            if uses == 0 and slot.uses:
                added.append(slot.suffix)
            elif uses and not slot.uses:
                removed.append(slot.suffix)
            if not slot.uses:
                del self._canonical[slot.suffix.steps]
        self.added, self.removed = tuple(added), tuple(removed)
        return out

    @staticmethod
    def _use(slot: _Canonical, delta: int, before: Dict[int, Tuple[_Canonical, int]]) -> None:
        if id(slot) not in before:
            before[id(slot)] = (slot, slot.uses)
        slot.uses += delta


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
    """Deduplicate retained suffixes (many examples share one idiom).

    The results of one generalizer share one object per suffix, so
    identity is step equality; first occurrences are kept, in order.
    """
    seen: Set[int] = set()
    out: List[Jungloid] = []
    for g in generalized:
        if id(g.suffix) not in seen:
            seen.add(id(g.suffix))
            out.append(g.suffix)
    return out
