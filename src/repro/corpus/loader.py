"""Corpus loading: parse, resolve, and check mini-Java client programs.

A corpus is resolved against a **clone** of the API registry so client
classes and members never leak into the synthesis graph (client methods
must be inlined by mining, not offered as signature edges).

Every load takes each file through read → parse → resolve → check with
faults isolated per file. Broken files are quarantined into a
:class:`~repro.robustness.CorpusDiagnostics` report (file, phase, error)
and the healthy remainder loads normally — noisy corpora are the normal
case for mining, not an error. That is the whole of a **lenient** load
(``lenient=True``); a **strict** one (the default) adds a verdict: it
raises the first fault's error (the parser's, the joint resolution
attempt's, or the first check's over all its issues), and nothing loads.

A :class:`~repro.minijava.ResolutionCache` also remembers each file the
resolve phase quarantined, when everything the file had looked up when
it failed came back empty. The next lenient resolution with that cache
leaves such a file out of its joint attempt while its AST is the same,
its lookups still find nothing, no other file looks up a name it
declares, and the rest resolves: the culprit search would then pick it
again with the same error and the same registry, so it is not run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..collector import _collector_paused
from ..minijava import (
    CheckReport,
    CompilationUnit,
    MiniJavaError,
    ResolutionCache,
    check_program,
    failure_of,
    parse_minijava,
    resolve_program,
)
from ..minijava.resolver import STEP_NAMES, ResolutionFailure
from ..robustness import (
    CorpusDiagnostics,
    PHASE_CHECK,
    PHASE_PARSE,
    PHASE_READ,
    PHASE_RESOLVE,
)
from ..typesystem import NamedType, TypeRegistry, TypeSystemError

#: Resolution touches both the mini-Java front end and the registry, so
#: either family of model error can surface; neither is a crash.
_RESOLVE_ERRORS = (MiniJavaError, TypeSystemError)


class CorpusLoadError(Exception):
    """A corpus file could not be read (strict mode); names the path."""


def clone_registry(registry: TypeRegistry) -> TypeRegistry:
    """A copy of a registry whose edits neither one sees.

    Uses :meth:`TypeRegistry.clone`, which is copy-on-write: it copies
    the name maps and shares every declaration until one side adds a
    member to it. Corpus resolution only declares new classes and adds
    members to those, so a clone per resolution attempt costs the maps
    alone, whatever the size of the API.
    """
    return registry.clone()


@dataclass
class CorpusProgram:
    """A resolved corpus: units, their registry, and the client types."""

    units: List[CompilationUnit] = field(default_factory=list)
    registry: TypeRegistry = field(default_factory=TypeRegistry)
    corpus_types: List[NamedType] = field(default_factory=list)
    check_report: Optional[CheckReport] = None
    #: Quarantine report from a lenient load; ``None`` after a strict load.
    diagnostics: Optional[CorpusDiagnostics] = None
    #: The raw ``(source, text)`` pairs the program was loaded from
    #: (including quarantined files). The incremental pipeline needs the
    #: originals to fingerprint and re-slice on :meth:`update_corpus`.
    texts: List[Tuple[str, str]] = field(default_factory=list)
    #: The records of the load's resolution. The first pipeline built
    #: from this program takes them with its units, its quarantined
    #: units and its parse faults, and clears this field; a later one
    #: parses afresh.
    resolution_cache: Optional[ResolutionCache] = field(
        default=None, repr=False, compare=False
    )
    #: ``(source, error)`` for each text a lenient load could not parse.
    parse_faults: List[Tuple[str, MiniJavaError]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: The parsed units a lenient load's resolve or check quarantined.
    quarantined_units: List[CompilationUnit] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def class_count(self) -> int:
        return sum(len(u.classes) for u in self.units)

    @property
    def method_count(self) -> int:
        return sum(len(c.methods) for u in self.units for c in u.classes)


@_collector_paused()
def load_corpus_texts(
    api_registry: TypeRegistry,
    texts: Iterable[Tuple[str, str]],
    check: bool = True,
    lenient: bool = False,
) -> CorpusProgram:
    """Parse and resolve ``(source_name, text)`` corpus files.

    The returned program owns a cloned registry containing API + client
    declarations; ``api_registry`` is left untouched. With
    ``lenient=True`` broken files are quarantined (see module docstring)
    instead of raising. The load runs with the cyclic collector paused.
    """
    texts = list(texts)
    diagnostics = CorpusDiagnostics()
    units: List[CompilationUnit] = []
    parse_faults: List[Tuple[str, MiniJavaError]] = []
    for source, text in texts:
        try:
            units.append(parse_minijava(text, source))
        except MiniJavaError as exc:
            diagnostics.record(source, PHASE_PARSE, exc)
            parse_faults.append((source, exc))
    cache = ResolutionCache()
    registry, loaded, corpus_types, report = resolve_and_check_lenient(
        api_registry, units, diagnostics, check, cache
    )
    if not lenient:
        diagnostics.raise_first()
    kept = {id(u) for u in loaded}
    quarantined = [u for u in units if id(u) not in kept]
    diagnostics.loaded = [u.source for u in loaded]
    return CorpusProgram(
        units=loaded,
        registry=registry,
        corpus_types=corpus_types,
        check_report=report,
        diagnostics=diagnostics if lenient else None,
        texts=texts,
        resolution_cache=cache,
        parse_faults=parse_faults,
        quarantined_units=quarantined,
    )


def load_corpus_files(
    api_registry: TypeRegistry,
    paths: Iterable[str],
    check: bool = True,
    lenient: bool = False,
) -> CorpusProgram:
    """Load corpus ``.mj`` files from disk.

    A missing or unreadable path produces a diagnostic naming the path:
    strict mode raises :class:`CorpusLoadError`, lenient mode quarantines
    the path in the ``read`` phase and continues.
    """
    texts = []
    read_faults = CorpusDiagnostics()
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append((str(path), handle.read()))
        except (OSError, UnicodeDecodeError) as exc:
            if not lenient:
                raise CorpusLoadError(
                    f"cannot read corpus file {path!s}: {exc}"
                ) from exc
            read_faults.record(str(path), PHASE_READ, exc)
    program = load_corpus_texts(api_registry, texts, check=check, lenient=lenient)
    if lenient and program.diagnostics is not None and read_faults.faults:
        # Read-phase faults happened first; keep them at the front.
        read_faults.loaded = program.diagnostics.loaded
        read_faults.faults.extend(program.diagnostics.faults)
        program.diagnostics = read_faults
    return program


# ----------------------------------------------------------------------
# Lenient loading: per-file fault isolation
# ----------------------------------------------------------------------


def resolve_and_check_lenient(
    api_registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    diagnostics: CorpusDiagnostics,
    check: bool = True,
    cache: Optional[ResolutionCache] = None,
) -> Tuple[TypeRegistry, List[CompilationUnit], List[NamedType], Optional[CheckReport]]:
    """Resolve (and optionally check) parsed units with fault quarantine.

    The resolution/check half of the lenient load, shared with the
    incremental pipeline, which re-runs it over cached parsed units
    without re-reading or re-parsing anything; its ``cache`` lets every
    attempt skip the bodies of units whose lookups did not change.
    """
    registry, units, corpus_types = _resolve_lenient(
        api_registry, units, diagnostics, cache
    )

    report: Optional[CheckReport] = None
    if check:
        while True:
            report = check_program(registry, units, cache)
            if report.ok:
                break
            bad_sources = []
            for issue in report.issues:
                if issue.source not in bad_sources:
                    bad_sources.append(issue.source)
            failure = report.error()
            for source in bad_sources:
                first = next(i for i in report.issues if i.source == source)
                diagnostics.record(source, PHASE_CHECK, first, failure)
            units = [u for u in units if u.source not in set(bad_sources)]
            # Quarantined classes are declared in the registry; rebuild it
            # from the API so their types don't linger.
            registry, units, corpus_types = _resolve_lenient(
                api_registry, units, diagnostics, cache
            )
    return registry, list(units), list(corpus_types), report


def _resolve_lenient(
    api_registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    diagnostics: CorpusDiagnostics,
    cache: Optional[ResolutionCache] = None,
):
    """Resolve as many units as possible, quarantining culprits.

    Healthy units are resolved *together* (corpus files may reference
    each other's classes); on failure the culprit file is identified,
    quarantined, and resolution retried on the remainder — unless the
    culprit search already resolved the remainder, which is then final.
    Files the cache remembers as quarantined are first left out, when
    that provably decides the same (see :func:`_resolve_without_held`).
    """
    remaining = list(units)
    if cache is not None:
        held = _resolve_without_held(api_registry, remaining, cache)
        if held is not None:
            registry, remaining, corpus_types, records = held
            for record in records:
                diagnostics.record(record.unit.source, PHASE_RESOLVE, record.error)
            return registry, remaining, corpus_types
        for unit in remaining:
            cache.quarantined.pop(id(unit), None)
    while remaining:
        registry = clone_registry(api_registry)
        try:
            corpus_types = resolve_program(registry, remaining, cache=cache)
            return registry, remaining, corpus_types
        except _RESOLVE_ERRORS as exc:
            culprit, resolved = _resolve_culprit(api_registry, remaining, exc, cache)
            diagnostics.record(culprit.source, PHASE_RESOLVE, exc)
            if cache is not None:
                _remember(cache, culprit, exc)
            remaining = [u for u in remaining if u is not culprit]
            if resolved is not None:
                registry, corpus_types = resolved
                return registry, remaining, corpus_types
    return clone_registry(api_registry), [], []


def _resolve_culprit(
    api_registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    error: Exception,
    cache: Optional[ResolutionCache] = None,
) -> Tuple[CompilationUnit, Optional[Tuple[TypeRegistry, List[NamedType]]]]:
    """The unit to quarantine after a joint resolution failure.

    Prefer a unit whose removal lets the rest resolve, returned with that
    trial's registry and corpus types; fall back to the unit the joint
    attempt's ``error`` was raised in (with two broken files no single
    removal helps, and that unit is one of them); fall back to the first
    unit (guaranteeing progress). The fallbacks return no trial.

    A unit that failed on misses only fails again whatever else is
    removed, so it is the culprit, found without trials.
    """
    missed = _failed_on_misses(error)
    if missed is not None and any(u is missed.unit for u in units):
        return missed.unit, None
    for unit in units:
        rest = [u for u in units if u is not unit]
        registry = clone_registry(api_registry)
        try:
            corpus_types = resolve_program(registry, rest, cache=cache)
        except _RESOLVE_ERRORS:
            continue
        return unit, (registry, corpus_types)
    failure = failure_of(error)
    if failure is not None and any(u is failure.unit for u in units):
        return failure.unit, None
    return units[0], None


# ----------------------------------------------------------------------
# The quarantine memo
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Held:
    """A quarantined unit whose every lookup, when it failed, found nothing,
    with the error it failed with (a strict sync raises it again)."""

    unit: CompilationUnit
    error: BaseException
    #: The attempt step it failed in; held units are reported in
    #: (step, corpus order), the order the culprit search raises them.
    step: int
    #: Qualified names it probed and simple names it searched.
    names: Tuple[str, ...]
    simples: Tuple[str, ...]
    #: Qualified names of the classes it declares.
    declares: Tuple[str, ...]


def _failed_on_misses(error: Exception) -> Optional[ResolutionFailure]:
    """``error``'s failure, if it depends on misses only.

    The failure must have been raised in a unit, after its names were
    declared (a duplicate declaration depends on other files), with every
    probe so far a miss: its resolution up to the error then read nothing
    but its own AST, so while those probes keep missing it fails again at
    the same point with the same error, whichever other units are there.
    """
    failure = failure_of(error)
    if failure is None or failure.step == STEP_NAMES:
        return None
    for trace in failure.traces:
        if any(t is not None for t in trace.names.values()) or any(trace.simples.values()):
            return None
    return failure


def _remember(cache: ResolutionCache, culprit: CompilationUnit, error: Exception) -> None:
    """Memoize ``culprit``'s quarantine if it failed on misses only."""
    failure = _failed_on_misses(error)
    if failure is None or failure.unit is not culprit:
        return
    cache.quarantined[id(culprit)] = _Held(
        unit=culprit,
        error=error,
        step=failure.step,
        names=tuple(name for trace in failure.traces for name in trace.names),
        simples=tuple(name for trace in failure.traces for name in trace.simples),
        declares=tuple(str(cls.qualified_name) for cls in culprit.classes),
    )


def _resolve_without_held(
    api_registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    cache: ResolutionCache,
) -> Optional[Tuple[TypeRegistry, List[CompilationUnit], List[NamedType], List[_Held]]]:
    """Resolve ``units`` without the ones the cache holds as quarantined.

    Returns ``None`` (and the caller runs the culprit search) unless the
    rest resolves and a joint attempt provably fails only in the held
    units, each with its remembered error: every name a held unit
    probed still finds nothing, counting the names every held unit
    declares; no other unit probed a name a held unit declares; and no
    name is declared twice. A held unit's AST is the one it failed with,
    since the memo is keyed by AST.
    """
    held = [
        (index, cache.quarantined[id(u)])
        for index, u in enumerate(units)
        if id(u) in cache.quarantined
    ]
    if not held:
        return None
    declared = [name for _, h in held for name in h.declares]
    declared_set = set(declared)
    if len(declared_set) != len(declared):
        return None
    declared_simple = {name.rpartition(".")[2] for name in declared}
    rest = [u for u in units if id(u) not in cache.quarantined]
    registry = clone_registry(api_registry)
    try:
        corpus_types = resolve_program(registry, rest, cache=cache)
    except _RESOLVE_ERRORS:
        return None
    for _, h in held:
        if any(registry.get(name) is not None for name in h.declares):
            return None
        for name in h.names:
            if name in declared_set or registry.get(name) is not None:
                return None
        for simple in h.simples:
            if simple in declared_simple or registry.lookup_simple(simple):
                return None
    if cache.probed_by(declared_set, declared_simple) & {id(u) for u in rest}:
        return None
    held.sort(key=lambda item: (item[1].step, item[0]))
    return registry, rest, corpus_types, [h for _, h in held]
