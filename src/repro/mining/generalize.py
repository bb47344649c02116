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
depth-1 node (its last pre-cast step), so the generalizer keeps each
example's result until the example is removed, indexes it under that
node, and recomputes it only when an insert or remove passed through
the node since. Suffixes are canonical per generalizer — equal
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
    __slots__ = ("children", "casts", "dirty", "examples")

    def __init__(self):
        self.children: Dict[ElementaryJungloid, "_TrieNode"] = {}
        #: Cast key → number of live examples with that cast beneath here.
        self.casts: Dict[CastKey, int] = {}
        #: On a depth-1 node: an insert or remove passed through it since
        #: the last :meth:`IncrementalGeneralizer.generalize`.
        self.dirty = False
        #: On a depth-1 node: the examples whose kept result was computed
        #: beneath it, by id (``None`` until there is one).
        self.examples: Optional[Dict[int, ExampleJungloid]] = None


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
    the corpus changes. An example's result is kept from the
    :meth:`generalize` that computed it until :meth:`remove` takes that
    example object; a later :meth:`generalize` recomputes only the kept
    results under a depth-1 node an insert or remove touched since.
    """

    def __init__(self, min_precast_steps: int = 1):
        self.min_precast_steps = int(min_precast_steps)
        self._root = _TrieNode()
        self._live = 0
        #: Depth-1 nodes marked dirty since the last generalize.
        self._dirty: List[_TrieNode] = []
        #: id(example) -> (its result, its depth-1 node, its suffix's slot),
        #: for every example with a kept result.
        self._results: Dict[int, Tuple[GeneralizedExample, Optional[_TrieNode], _Canonical]] = {}
        self._canonical: Dict[Tuple[ElementaryJungloid, ...], _Canonical] = {}
        #: id(slot) -> (slot, its use count before its first change since
        #: the last generalize).
        self._before: Dict[int, Tuple[_Canonical, int]] = {}
        #: Canonical suffixes whose use count rose from zero, in the order
        #: of the last generalize's output, and fell to zero, since the
        #: generalize before it.
        self.added: Tuple[Jungloid, ...] = ()
        self.removed: Tuple[Jungloid, ...] = ()
        #: The kept results the last generalize recomputed to a new suffix.
        self.moved: Tuple[GeneralizedExample, ...] = ()

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
        """Exactly undo one prior :meth:`insert` of an equal example, and
        drop the result kept for this example object, if any.

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
        entry = self._results.pop(id(example), None)
        if entry is not None:
            if entry[1] is not None:
                del entry[1].examples[id(example)]  # type: ignore[union-attr]
            self._use(entry[2], -1)
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

    def _slot(self, steps: Tuple[ElementaryJungloid, ...]) -> _Canonical:
        slot = self._canonical.get(steps)
        if slot is None:
            slot = self._canonical[steps] = _Canonical(Jungloid(steps))
        return slot

    def generalize(
        self, examples: Iterable[ExampleJungloid]
    ) -> List[GeneralizedExample]:
        """Suffixes for ``examples`` (cast-free ones skipped), in order.

        Every casted example must currently be inserted; conflicts are
        judged against *all* live examples. First every kept result
        under a depth-1 node an insert or remove touched since the last
        call is computed again (the node's index of examples finds
        them), and :attr:`moved` holds those whose suffix changed; then
        each example passed without a kept result gets one.
        """
        moved: List[GeneralizedExample] = []
        for node in self._dirty:
            node.dirty = False
            for key, example in (node.examples or {}).items():
                result, first, slot = self._results[key]
                fresh = self._slot(self._retained(example)[0])
                if fresh is slot:
                    continue
                self._use(slot, -1)
                self._use(fresh, 1)
                result = GeneralizedExample(example, fresh.suffix)
                self._results[key] = (result, first, fresh)
                moved.append(result)
        self._dirty = []
        out: List[GeneralizedExample] = []
        for example in examples:
            entry = self._results.get(id(example))
            if entry is None:
                if not _is_casted(example):
                    continue
                steps, first = self._retained(example)
                slot = self._slot(steps)
                self._use(slot, 1)
                entry = (GeneralizedExample(example, slot.suffix), first, slot)
                # An entry holds its example, so no other object has its id.
                self._results[id(example)] = entry
                if first is not None:
                    if first.examples is None:
                        first.examples = {}
                    first.examples[id(example)] = example
            out.append(entry[0])
        added: List[Jungloid] = []
        removed: List[Jungloid] = []
        for slot, uses in self._before.values():
            if uses == 0 and slot.uses:
                added.append(slot.suffix)
            elif uses and not slot.uses:
                removed.append(slot.suffix)
            if not slot.uses:
                del self._canonical[slot.suffix.steps]
        self._before = {}
        if len(added) > 1:
            place: Dict[int, int] = {}
            for index, result in enumerate(out):
                place.setdefault(id(result.suffix), index)
            added.sort(key=lambda suffix: place.get(id(suffix), len(out)))
        self.added, self.removed, self.moved = tuple(added), tuple(removed), tuple(moved)
        return out

    def _use(self, slot: _Canonical, delta: int) -> None:
        if id(slot) not in self._before:
            self._before[id(slot)] = (slot, slot.uses)
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
