"""Deterministic fault injection for exercising the degradation paths.

Robustness code that is only reachable under production failures is
untested code. These hooks make every failure mode reproducible:

* :class:`ManualClock` (in :mod:`.budget`) drives deadline expiry;
* :class:`FlakyCompiler` stands in for the search kernel's
  ``compile_graph`` and swaps one CSR edge array of each snapshot for a
  :class:`FlakyEdgeArray`, which raises :class:`InjectedFault` after a
  fixed number of edge reads — so a mid-search crash happens at an
  exact, repeatable step of the path that serves answers;
* the corpus mutators corrupt ``(name, text)`` corpus entries in fixed
  ways (garbled token, truncation) so lenient-loading quarantine paths
  run against known-bad input;
* the byte mutators (:func:`flip_byte`, :func:`truncate_bytes`,
  :func:`corrupt_file`) damage snapshot files at exact offsets — the
  torn-write and bit-flip cases the store's recovery ladder must absorb;
* :class:`FlakyFileSystem` makes reads fail a fixed number of times, so
  the previous-generation and rebuild rungs are reachable on demand.

Nothing here is imported by production code paths; the engine and the
loaders see only the ordinary snapshot / corpus interfaces.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple


class InjectedFault(RuntimeError):
    """A deliberate failure raised by a fault-injection hook."""


class FlakyEdgeArray(list):
    """A CSR edge array whose reads fail after ``fail_after`` of them.

    Only reads of the slots ``slots()`` returns count (every slot when
    ``None``), so a test can poison one node's edges: its CSR slot range
    with ``fail_after=0``. ``reads`` records how many counted reads happened.
    """

    def __init__(self, values, fail_after: int, kind: str, slots=None):
        super().__init__(values)
        self.fail_after = int(fail_after)
        self.kind = kind
        self.slots = slots
        self.reads = 0

    def __getitem__(self, index):
        if self.slots is None or index in self.slots():
            self.reads += 1
            if self.reads > self.fail_after:
                raise InjectedFault(
                    f"injected {self.kind}-edge fault after {self.fail_after} reads"
                )
        return list.__getitem__(self, index)


class FlakyCompiler:
    """A ``compile_graph`` stand-in whose snapshots carry a fault.

    ``fail_on`` picks the edge array that trips: ``"out"`` for the
    forward CSR (``out_target``: the enumeration DFS and the
    shortest-path walk), ``"in"`` for the backward one (``in_source``:
    the distance pass). With ``node``, only that node's edges count, and
    the poison follows them when a patch moves them. Tests install it over
    ``repro.search.engine.compile_graph``; the latest snapshot is kept in
    :attr:`compiled`.
    """

    def __init__(
        self,
        compile_fn: Callable,
        fail_after: int,
        fail_on: str = "out",
        node=None,
    ):
        if fail_on not in ("out", "in"):
            raise ValueError(f"fail_on must be 'out' or 'in', not {fail_on!r}")
        self.compile_fn = compile_fn
        self.fail_after = int(fail_after)
        self.fail_on = fail_on
        self.node = node
        self.compiled = None

    def __call__(self, graph, *args, **kwargs):
        compiled = self.compile_fn(graph, *args, **kwargs)
        attr, start, end = (
            ("out_target", compiled.out_start, compiled.out_end)
            if self.fail_on == "out"
            else ("in_source", compiled.in_start, compiled.in_end)
        )
        slots: Optional[Callable[[], range]] = None
        if self.node is not None:
            nid = compiled.node_id[self.node]
            slots = lambda: range(start[nid], end[nid])  # noqa: E731 — read live
        setattr(
            compiled,
            attr,
            FlakyEdgeArray(getattr(compiled, attr), self.fail_after, self.fail_on, slots),
        )
        self.compiled = compiled
        return compiled


#: A corpus entry as the loaders consume it.
CorpusText = Tuple[str, str]
#: A text mutator used by :func:`corrupt_corpus`.
Mutator = Callable[[str], str]


def garble_text(text: str) -> str:
    """Inject an unlexable token mid-file — guarantees a parse failure."""
    middle = len(text) // 2
    return text[:middle] + " %?garbled?% " + text[middle:]


def truncate_text(text: str, keep_fraction: float = 0.5) -> str:
    """Chop the file mid-token, the classic interrupted-checkout shape."""
    return text[: int(len(text) * keep_fraction)]


# ----------------------------------------------------------------------
# Byte-level injectors for the snapshot store
# ----------------------------------------------------------------------

#: A bytes mutator used by :func:`corrupt_file`.
ByteMutator = Callable[[bytes], bytes]


def flip_byte(data: bytes, offset: int) -> bytes:
    """XOR one byte with 0xFF — the single-bit-rot / bad-sector shape.

    ``offset`` may be negative or past the end; it wraps modulo the
    length so tests can sweep arbitrary offsets without bounds math.
    """
    if not data:
        raise ValueError("flip_byte: cannot corrupt empty data")
    offset %= len(data)
    return data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]


def truncate_bytes(data: bytes, keep: int) -> bytes:
    """Keep only the first ``keep`` bytes — the torn-write shape."""
    if keep < 0:
        raise ValueError("truncate_bytes: keep must be non-negative")
    return data[:keep]


def corrupt_file(path: os.PathLike, mutator: ByteMutator) -> None:
    """Damage a file in place (deliberately *not* atomically)."""
    p = Path(path)
    p.write_bytes(mutator(p.read_bytes()))


class FlakyFileSystem:
    """A ``read_bytes(path)`` that fails the first ``fail_times`` calls.

    Stands in for :class:`~repro.store.SnapshotStore`'s injectable
    reader, so transient I/O faults (NFS hiccup, evicted page) happen at
    an exact, repeatable call. Raises ``OSError`` — the same class real
    filesystems raise — so no production code special-cases the fake.
    """

    def __init__(self, fail_times: int):
        self.fail_times = int(fail_times)
        self.calls = 0

    def read_bytes(self, path: os.PathLike) -> bytes:
        self.calls += 1
        if self.calls <= self.fail_times:
            raise OSError(f"injected filesystem fault (read #{self.calls})")
        return Path(path).read_bytes()


def corrupt_corpus(
    texts: Iterable[CorpusText],
    victims: Sequence[str],
    mutator: Mutator = garble_text,
) -> List[CorpusText]:
    """A copy of ``texts`` with every entry named in ``victims`` mutated.

    Unknown victim names are an error — a typo would silently test
    nothing.
    """
    texts = list(texts)
    victim_set = set(victims)
    known = {name for name, _ in texts}
    missing = victim_set - known
    if missing:
        raise KeyError(f"corrupt_corpus: unknown corpus entries {sorted(missing)}")
    return [
        (name, mutator(text) if name in victim_set else text) for name, text in texts
    ]
