"""The staged, incremental corpus → jungloid-graph pipeline.

:class:`CorpusPipeline` is the one way a corpus becomes a graph (paper
§4: slice each cast, generalize to suffixes, splice them into the
signature graph), as explicit stages with cached, fingerprinted
artifacts:

1. **fingerprint** — SHA-256 every corpus file; diff against the last
   sync. Identical content means identical downstream artifacts.
2. **parse** — per-file parse cache keyed by fingerprint; only touched
   files are re-parsed (lenient mode quarantines parse failures exactly
   like :func:`repro.corpus.load_corpus_texts`).
3. **resolve/check** — every attempt declares *all* live units, but
   re-resolves the bodies only of units whose
   :class:`~repro.minijava.ResolutionCache` entry went stale: a name the
   bodies probed binds differently, or a corpus type they read changed
   its declaration (new AST, shadowing class, new overload, edited
   supertype). A unit's check issues are cached on the same entry.
   Lenient quarantine semantics are shared with the corpus loader via
   :func:`repro.corpus.resolve_and_check_lenient`.
4. **mine + analyze** — per-file example extraction and cast
   observations, cached per fingerprint plus the file's recorded slicing
   dependencies (inlined client bodies and CHA caller sets queried by
   either interpretation, referenced corpus-type hierarchy). Only files
   whose content *or* dependencies changed are re-sliced.
5. **generalize** — an incremental reference-counted cast trie
   (:class:`repro.mining.IncrementalGeneralizer`); re-mined files'
   examples are removed/inserted, never the whole structure rebuilt.
6. **graft** — the deduplicated suffix set is diffed against the
   previous one and only the delta is spliced into the live
   :class:`~repro.graph.JungloidGraph`, whose edge journal lets a search
   engine patch its compiled graph and keep the distance maps the
   delta cannot move.

The pipeline's contract, enforced by the differential test suite: after
any sequence of :meth:`update` calls, ranked query answers are identical
to a from-scratch build over the same final texts. A no-op update (same
bytes) leaves the graph revision untouched, so downstream caches and the
compiled search kernel don't move at all.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.castsafety import CastAnalyzer, CastObservation, build_verdict_index
from ..analysis.verdicts import CastVerdictIndex
from ..corpus import CorpusProgram, clone_registry, resolve_and_check_lenient
from ..graph import JungloidGraph
from ..graph.jungloid_graph import MinedDelta
from ..jungloids import Jungloid
from ..minijava import (
    MiniJavaError,
    ResolutionCache,
    check_program,
    parse_minijava,
    resolve_program,
)
from ..minijava.ast import CastExpr, CompilationUnit, Expr, method_expressions
from ..minijava.callgraph import CallGraph, CallSite, build_call_graph
from ..mining import (
    ExtractionConfig,
    IncrementalGeneralizer,
    JungloidExtractor,
    MiningResult,
    unique_suffixes,
)
from ..robustness import CorpusDiagnostics, PHASE_PARSE
from ..typesystem import ArrayType, Method, NamedType, TypeRegistry
from .artifacts import FileMineRecord, StageFormatError, check_stage_dict, stages_to_dict
from .delta import SuffixKey, compute_suffix_delta, suffix_map
from .fingerprint import diff_fingerprints, fingerprint_texts


def _now_ms() -> float:
    # The calling thread's CPU time, as the benchmark measures: other
    # processes on a loaded host do not inflate a stage.
    return time.thread_time() * 1000.0


def _method_key(method: Method) -> str:
    """Stable textual identity of a method across registry clones."""
    params = ",".join(str(t) for t in method.parameter_types)
    tag = "#static" if method.static else ""
    return f"{method.owner}.{method.name}({params}){tag}"


class _RecordingCallGraph:
    """Call-graph proxy logging which methods a slice depended on.

    ``declaration_of`` queries mark client-body inlining points;
    ``call_sites_of`` queries mark interprocedural caller jumps. The
    pipeline fingerprints the queries of both the extractor and the
    analyzer of a file against the files involved, so a change anywhere
    in either slice's support re-slices the file.
    """

    def __init__(self, inner: CallGraph):
        self.inner = inner
        self.decl_queries: Set[Method] = set()
        self.site_queries: Set[Method] = set()

    def declaration_of(self, method: Method):
        self.decl_queries.add(method)
        return self.inner.declaration_of(method)

    def call_sites_of(self, method: Method) -> Tuple[CallSite, ...]:
        self.site_queries.add(method)
        return self.inner.call_sites_of(method)

    def call_sites_in(self, decl) -> Tuple[CallSite, ...]:
        return self.inner.call_sites_in(decl)

    def expressions_in(self, decl) -> Tuple[Expr, ...]:
        return self.inner.expressions_in(decl)

    def clear(self) -> None:
        """Forget the queries so far (before slicing the next file)."""
        self.decl_queries.clear()
        self.site_queries.clear()


def _collect_named(t, out: Set[str]) -> None:
    while isinstance(t, ArrayType):
        t = t.element
    if isinstance(t, NamedType):
        out.add(t.simple)


def _referenced_corpus_types(
    unit: CompilationUnit, registry: TypeRegistry, class_src: Dict[str, str]
) -> Set[str]:
    """Type names the unit references, closed over corpus supertypes.

    Subtype tests and widening chains during extraction consult the
    hierarchy that *other* corpus files declare; recording the closure's
    declaring files as dependencies makes hierarchy edits re-mine every
    unit that could observe them. Names that currently resolve outside
    the corpus are returned too — their recorded dependency is ``None``,
    which flips (and invalidates) if a later corpus file shadows the
    name with a client class.
    """
    names: Set[str] = set()
    for cls in unit.classes:
        names.add(cls.name)
        if cls.extends is not None:
            names.add(cls.extends.name)
        for ref in cls.implements:
            names.add(ref.name)
        for m in cls.methods:
            for expr in method_expressions(m):
                _collect_named(getattr(expr, "resolved_type", None), names)
                rm = getattr(expr, "resolved_method", None)
                if rm is not None:
                    _collect_named(rm.owner, names)
                    _collect_named(rm.return_type, names)
                    for p in rm.parameter_types:
                        _collect_named(p, names)
                rc = getattr(expr, "resolved_constructor", None)
                if rc is not None:
                    _collect_named(rc.owner, names)
                    for p in rc.parameter_types:
                        _collect_named(p, names)
                rf = getattr(expr, "resolved_field", None)
                if rf is not None:
                    _collect_named(rf.owner, names)
                    _collect_named(rf.type, names)
                if isinstance(expr, CastExpr):
                    _collect_named(expr.operand_type, names)
    frontier = [n for n in names if n in class_src]
    while frontier:
        name = frontier.pop()
        for t in registry.lookup_simple(name):
            try:
                decl = registry.declaration_of(t)
            except Exception:
                continue
            sups = list(decl.interfaces)
            if decl.superclass is not None:
                sups.append(decl.superclass)
            for sup in sups:
                simple = sup.simple
                if simple in class_src and simple not in names:
                    names.add(simple)
                    frontier.append(simple)
    return names


@dataclass
class StageTimings:
    """Milliseconds of the syncing thread's CPU time spent in each stage."""

    fingerprint_ms: float = 0.0
    parse_ms: float = 0.0
    resolve_ms: float = 0.0
    callgraph_ms: float = 0.0
    mine_ms: float = 0.0
    analyze_ms: float = 0.0
    generalize_ms: float = 0.0
    graft_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.fingerprint_ms
            + self.parse_ms
            + self.resolve_ms
            + self.callgraph_ms
            + self.mine_ms
            + self.analyze_ms
            + self.generalize_ms
            + self.graft_ms
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        data["total_ms"] = self.total_ms
        return data


@dataclass
class PipelineUpdateStats:
    """Everything one :meth:`CorpusPipeline.sync` did, with timings."""

    files_total: int = 0
    files_added: Tuple[str, ...] = ()
    files_changed: Tuple[str, ...] = ()
    files_removed: Tuple[str, ...] = ()
    #: Loaded files whose bodies were resolved again, not reused.
    files_reresolved: Tuple[str, ...] = ()
    #: Files actually re-sliced (content or dependency change).
    files_remined: Tuple[str, ...] = ()
    #: Healthy files whose cached examples were reused untouched.
    files_reused: int = 0
    #: Files whose cast observations were recomputed: the re-mined files,
    #: plus any file whose observations are not cached (after a restart).
    files_reanalyzed: Tuple[str, ...] = ()
    #: Downcast observations recomputed in this sync.
    casts_reanalyzed: int = 0
    examples_total: int = 0
    suffixes_total: int = 0
    suffixes_added: int = 0
    suffixes_removed: int = 0
    #: Graph nodes whose adjacency the graft changed (every node on the
    #: initial build).
    affected_targets: int = 0
    revision_before: int = 0
    revision_after: int = 0
    #: True when the sync changed nothing (identical fingerprints).
    noop: bool = False
    initial: bool = False
    timings: StageTimings = field(default_factory=StageTimings)

    def to_dict(self) -> dict:
        return {
            "files_total": self.files_total,
            "files_added": list(self.files_added),
            "files_changed": list(self.files_changed),
            "files_removed": list(self.files_removed),
            "files_reresolved": list(self.files_reresolved),
            "files_remined": list(self.files_remined),
            "files_reused": self.files_reused,
            "files_reanalyzed": list(self.files_reanalyzed),
            "casts_reanalyzed": self.casts_reanalyzed,
            "examples_total": self.examples_total,
            "suffixes_total": self.suffixes_total,
            "suffixes_added": self.suffixes_added,
            "suffixes_removed": self.suffixes_removed,
            "affected_targets": self.affected_targets,
            "revision_before": self.revision_before,
            "revision_after": self.revision_after,
            "noop": self.noop,
            "initial": self.initial,
            "timings": self.timings.to_dict(),
        }


#: Parse-cache entry: (fingerprint, parsed unit or None, parse fault or None).
_ParseEntry = Tuple[str, Optional[CompilationUnit], Optional[Exception]]


class CorpusPipeline:
    """Staged corpus → graph build with incremental re-sync.

    The pipeline owns the live :class:`~repro.graph.JungloidGraph` (the
    object identity is stable across updates, so long-lived search
    engines observe deltas through the graph's revision counter) and the
    current :class:`~repro.corpus.CorpusProgram` / mining artifacts.
    """

    def __init__(
        self,
        api_registry: TypeRegistry,
        extraction: ExtractionConfig = ExtractionConfig(),
        min_precast_steps: int = 1,
        lenient: bool = True,
        check: bool = True,
        public_only: bool = True,
    ):
        self.api_registry = api_registry
        self.extraction = extraction
        self.min_precast_steps = int(min_precast_steps)
        self.lenient = bool(lenient)
        self.check = bool(check)
        self.public_only = bool(public_only)

        self._texts: List[Tuple[str, str]] = []
        self._fingerprints: Dict[str, str] = {}
        self._parse_cache: Dict[str, _ParseEntry] = {}
        #: Body-resolution records of the parsed units (see stage 3).
        self._resolution_cache = ResolutionCache()
        self._records: Dict[str, FileMineRecord] = {}
        self._suffix_map: Dict[SuffixKey, Jungloid] = {}
        self._pending_record_dicts: Dict[str, dict] = {}
        self._generalizer = IncrementalGeneralizer(self.min_precast_steps)
        #: Per-file cast observations; invalidated with files_remined.
        self._analysis_obs: Dict[str, Tuple[CastObservation, ...]] = {}

        self.program: Optional[CorpusProgram] = None
        self.call_graph: Optional[CallGraph] = None
        self.mining: Optional[MiningResult] = None
        self.graph: Optional[JungloidGraph] = None
        #: The cast-verdict index for the current corpus state.
        self.verdicts: Optional[CastVerdictIndex] = None
        self.last_stats: Optional[PipelineUpdateStats] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        api_registry: TypeRegistry,
        texts: Iterable[Tuple[str, str]],
        **kwargs,
    ) -> "CorpusPipeline":
        """Full staged build from ``(source, text)`` corpus files."""
        pipeline = cls(api_registry, **kwargs)
        pipeline.sync(texts)
        return pipeline

    @classmethod
    def from_program(
        cls,
        api_registry: TypeRegistry,
        program: CorpusProgram,
        extraction: ExtractionConfig = ExtractionConfig(),
        min_precast_steps: int = 1,
        public_only: bool = True,
    ) -> "CorpusPipeline":
        """Adopt an already-loaded corpus program (must carry its texts).

        Load discipline is inferred from the program: a quarantine
        report means it was loaded leniently, a check report means
        checking was on. An empty program (no units, no texts) yields an
        empty pipeline that later updates can fill.
        """
        if program.units and not program.texts:
            raise ValueError("program has no retained texts; cannot build a pipeline")
        pipeline = cls(
            api_registry,
            extraction=extraction,
            min_precast_steps=min_precast_steps,
            lenient=program.diagnostics is not None,
            check=program.check_report is not None,
            public_only=public_only,
        )
        # Seed the parse cache with the program's already-parsed units so
        # the initial sync only re-resolves (idempotent) and mines.
        fps = fingerprint_texts(program.texts)
        for unit in program.units:
            if unit.source in fps:
                pipeline._parse_cache[unit.source] = (fps[unit.source], unit, None)
        pipeline.sync(program.texts)
        return pipeline

    @classmethod
    def from_artifacts(
        cls,
        api_registry: TypeRegistry,
        data: dict,
        graph: Optional[JungloidGraph] = None,
        extraction: Optional[ExtractionConfig] = None,
        check: bool = True,
        public_only: bool = True,
    ) -> "CorpusPipeline":
        """Rebuild a pipeline from persisted stage artifacts.

        ``graph`` (typically from a snapshot load) is adopted as the
        live graph; the initial sync then applies a suffix delta against
        it — empty when the artifacts and snapshot agree, corrective
        when they drifted. Cached mined examples are revalidated against
        their recorded dependency fingerprints before reuse, so a
        tampered or stale sidecar degrades to re-mining, never to wrong
        answers. Passing ``extraction`` different from the persisted
        config discards the cached examples (they were mined under other
        budgets).
        """
        data = check_stage_dict(data)
        try:
            stored = ExtractionConfig(**data["extraction_config"])
        except TypeError as exc:
            raise StageFormatError(f"unknown extraction config fields: {exc}") from exc
        config = extraction if extraction is not None else stored
        pipeline = cls(
            api_registry,
            extraction=config,
            min_precast_steps=int(data["min_precast_steps"]),
            lenient=bool(data.get("lenient", True)),
            check=check,
            public_only=public_only,
        )
        if config == stored:
            pipeline._pending_record_dicts = {
                r["source"]: r for r in data["records"]
            }
        if graph is not None:
            pipeline.graph = graph
            pipeline._suffix_map = {
                key: Jungloid(key) for key in graph.mined_suffix_keys()
            }
        texts = [(str(s), t) for s, t in data["texts"]]
        pipeline.sync(texts)
        return pipeline

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def texts(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self._texts)

    @property
    def suffixes(self) -> Tuple[Jungloid, ...]:
        return tuple(self.mining.suffixes) if self.mining is not None else ()

    @property
    def records(self) -> Dict[str, FileMineRecord]:
        return dict(self._records)

    def to_stage_dict(self) -> dict:
        """The persistable stage artifacts (see :mod:`.artifacts`)."""
        return stages_to_dict(
            self._texts,
            self._records,
            asdict(self.extraction),
            self.min_precast_steps,
            self.lenient,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(
        self,
        upserts: Iterable[Tuple[str, str]] = (),
        removes: Iterable[str] = (),
    ) -> PipelineUpdateStats:
        """Apply file-level edits: replace/add ``upserts``, drop ``removes``.

        Replaced files keep their position in corpus order; new files
        append. Equivalent to a full :meth:`sync` of the edited text
        list, which is exactly what the differential suite checks.
        """
        upserts = [(str(s), t) for s, t in upserts]
        removed = {str(s) for s in removes}
        pending = dict(upserts)
        texts: List[Tuple[str, str]] = []
        for source, text in self._texts:
            if source in removed:
                continue
            if source in pending:
                texts.append((source, pending.pop(source)))
            else:
                texts.append((source, text))
        for source, text in upserts:
            if source in pending and source not in removed:
                texts.append((source, text))
                pending.pop(source)
        return self.sync(texts)

    def sync(self, texts: Iterable[Tuple[str, str]]) -> PipelineUpdateStats:
        """Make the pipeline's outputs match ``texts``, incrementally.

        Stages 1–4 work on staging structures; the trie/graph/attribute
        commits at the end only run deterministic code, so a failure in
        the risky stages (parse/resolve/mine) leaves the pipeline on its
        previous consistent state.
        """
        texts = [(str(s), t) for s, t in texts]
        stats = PipelineUpdateStats(initial=self.graph is None)
        timings = stats.timings

        # -- Stage 1: fingerprint ---------------------------------------
        t0 = _now_ms()
        new_fps = fingerprint_texts(texts)
        diff = diff_fingerprints(self._fingerprints, new_fps)
        timings.fingerprint_ms = _now_ms() - t0
        stats.files_total = len(texts)
        stats.files_added = diff.added
        stats.files_changed = diff.changed
        stats.files_removed = diff.removed
        if (
            diff.is_empty
            and self.graph is not None
            and [s for s, _ in texts] == [s for s, _ in self._texts]
        ):
            stats.noop = True
            stats.files_reused = len(self._records)
            stats.examples_total = len(self.mining.examples) if self.mining else 0
            stats.suffixes_total = len(self._suffix_map)
            stats.revision_before = stats.revision_after = self.graph.revision
            self.last_stats = stats
            return stats

        # -- Stage 2: parse (per-file cache) ----------------------------
        t0 = _now_ms()
        new_parse: Dict[str, _ParseEntry] = {}
        units_all: List[CompilationUnit] = []
        parse_faults: List[Tuple[str, Exception]] = []
        for source, text in texts:
            fp = new_fps[source]
            cached = self._parse_cache.get(source)
            if cached is not None and cached[0] == fp:
                new_parse[source] = cached
                if cached[1] is not None:
                    units_all.append(cached[1])
                elif cached[2] is not None:
                    parse_faults.append((source, cached[2]))
                continue
            try:
                unit = parse_minijava(text, source)
            except MiniJavaError as exc:
                if not self.lenient:
                    raise
                new_parse[source] = (fp, None, exc)
                parse_faults.append((source, exc))
                continue
            new_parse[source] = (fp, unit, None)
            units_all.append(unit)
        timings.parse_ms = _now_ms() - t0

        # -- Stage 3: resolve + check (bodies only where lookups changed) -
        t0 = _now_ms()
        cache = self._resolution_cache
        cache.retain(units_all)
        diagnostics: Optional[CorpusDiagnostics] = None
        if self.lenient:
            diagnostics = CorpusDiagnostics()
            for source, exc in parse_faults:
                diagnostics.record(source, PHASE_PARSE, exc)
            registry, units, corpus_types, report = resolve_and_check_lenient(
                self.api_registry, units_all, diagnostics, self.check, cache
            )
            diagnostics.loaded = [u.source for u in units]
        else:
            registry = clone_registry(self.api_registry)
            units = list(units_all)
            corpus_types = resolve_program(registry, units, cache=cache)
            report = check_program(registry, units, cache) if self.check else None
            if report is not None:
                report.raise_if_failed()
        program = CorpusProgram(
            units=units,
            registry=registry,
            corpus_types=corpus_types,
            check_report=report,
            diagnostics=diagnostics,
            texts=list(texts),
        )
        timings.resolve_ms = _now_ms() - t0
        stats.files_reresolved = tuple(
            u.source for u in units if id(u) in cache.resolved
        )

        # -- Stage 4a: call graph + dependency fingerprint maps ---------
        t0 = _now_ms()
        call_graph = build_call_graph(registry, units)
        decl_fp_map, site_fp_map, class_src = self._dep_maps(call_graph, units, new_fps)
        timings.callgraph_ms = _now_ms() - t0

        # -- Stage 4b: mine (per-file cache + dependency validation) ----
        t0 = _now_ms()
        new_records: Dict[str, FileMineRecord] = {}
        remined: List[str] = []
        for unit in units:
            source = unit.source
            fp = new_fps[source]
            old = self._records.get(source)
            if old is None and source in self._pending_record_dicts:
                try:
                    old = FileMineRecord.from_dict(
                        registry, self._pending_record_dicts[source]
                    )
                except Exception:
                    old = None  # damaged artifact entry: degrade to re-mining
            if old is not None and self._record_valid(
                old, fp, decl_fp_map, site_fp_map, class_src, new_fps
            ):
                new_records[source] = old
                continue
            new_records[source] = self._mine_unit(
                unit, registry, units, corpus_types, call_graph,
                decl_fp_map, site_fp_map, class_src, new_fps, fp,
            )
            remined.append(source)
        timings.mine_ms = _now_ms() - t0
        stats.files_remined = tuple(remined)
        stats.files_reused = len(new_records) - len(remined)

        # -- Stage 4c: analyze (cast observations, per-file cache) ------
        # Re-mined files are re-analyzed, and the analyzer's call-graph
        # queries join their recorded dependencies: its join reads every
        # flow, where the extractor stops at its example cap or a fault.
        t0 = _now_ms()
        new_obs: Dict[str, Tuple[CastObservation, ...]] = {}
        reanalyzed: List[str] = []
        remined_set = set(remined)
        recorder = _RecordingCallGraph(call_graph)
        analyzer = CastAnalyzer(registry, units, corpus_types, recorder, self.extraction)
        for unit in units:
            source = unit.source
            cached_obs = self._analysis_obs.get(source)
            if cached_obs is not None and source not in remined_set:
                new_obs[source] = cached_obs
                continue
            recorder.clear()
            new_obs[source] = tuple(analyzer.analyze_unit(unit))
            reanalyzed.append(source)
            _record_call_deps(new_records[source], recorder, decl_fp_map, site_fp_map)
        verdicts = build_verdict_index(
            registry, [obs for unit in units for obs in new_obs[unit.source]]
        )
        timings.analyze_ms = _now_ms() - t0
        stats.files_reanalyzed = tuple(reanalyzed)
        stats.casts_reanalyzed = sum(len(new_obs[s]) for s in reanalyzed)

        # -- Stage 5: generalize (incremental trie) ---------------------
        t0 = _now_ms()
        for source, old in self._records.items():
            if new_records.get(source) is old:
                continue
            for example in old.examples:
                try:
                    self._generalizer.remove(example)
                except KeyError:
                    pass
            # A rehydrated-but-valid record was never in the trie; the
            # insert loop below covers it because identity differs.
        for source, record in new_records.items():
            if self._records.get(source) is record:
                continue
            for example in record.examples:
                self._generalizer.insert(example)
        order = [s for s, _ in texts if s in new_records]
        all_examples = [e for s in order for e in new_records[s].examples]
        generalized = self._generalizer.generalize(all_examples)
        suffixes = unique_suffixes(generalized)
        faults = [f for s in order for f in new_records[s].faults]
        mining = MiningResult(
            examples=all_examples,
            generalized=generalized,
            suffixes=suffixes,
            faults=faults,
        )
        timings.generalize_ms = _now_ms() - t0
        stats.examples_total = len(all_examples)
        stats.suffixes_total = len(suffixes)

        # -- Stage 6: graft the suffix delta ----------------------------
        t0 = _now_ms()
        new_map = suffix_map(suffixes)
        if self.graph is None:
            self.graph = JungloidGraph.build(
                self.api_registry, suffixes, public_only=self.public_only
            )
            stats.suffixes_added = len(new_map)
            stats.affected_targets = self.graph.node_count()
            stats.revision_before = 0
            stats.revision_after = self.graph.revision
        else:
            delta = compute_suffix_delta(self._suffix_map, new_map)
            applied: MinedDelta = self.graph.apply_mined_delta(
                delta.added, delta.removed
            )
            stats.suffixes_added = len(delta.added)
            stats.suffixes_removed = len(delta.removed)
            stats.affected_targets = len(applied.affected_targets)
            stats.revision_before = applied.revision_before
            stats.revision_after = applied.revision_after
        timings.graft_ms = _now_ms() - t0

        # -- Commit ------------------------------------------------------
        self._texts = texts
        self._fingerprints = new_fps
        self._parse_cache = new_parse
        self._records = new_records
        self._suffix_map = new_map
        self._pending_record_dicts = {}
        self._analysis_obs = new_obs
        self.program = program
        self.call_graph = call_graph
        self.mining = mining
        self.verdicts = verdicts
        self.last_stats = stats
        return stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dep_maps(
        self,
        call_graph: CallGraph,
        units: Sequence[CompilationUnit],
        fps: Dict[str, str],
    ):
        """Current dependency fingerprints for every corpus method/type."""
        src_of: Dict[int, str] = {}
        class_src: Dict[str, str] = {}
        for unit in units:
            for cls in unit.classes:
                class_src[cls.name] = unit.source
                for m in cls.methods:
                    src_of[id(m)] = unit.source
        decl_fp_map: Dict[str, Tuple[str, str]] = {}
        for method, decl in call_graph.methods.items():
            src = src_of.get(id(decl))
            if src is not None and src in fps:
                decl_fp_map[_method_key(method)] = (src, fps[src])
        site_fp_map: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        for method, sites in call_graph.callers_of.items():
            entries = sorted(
                (src_of[id(s.caller)], fps[src_of[id(s.caller)]])
                for s in sites
                if id(s.caller) in src_of and src_of[id(s.caller)] in fps
            )
            site_fp_map[_method_key(method)] = tuple(entries)
        return decl_fp_map, site_fp_map, class_src

    def _record_valid(
        self,
        record: FileMineRecord,
        fp: str,
        decl_fp_map: Dict[str, Tuple[str, str]],
        site_fp_map: Dict[str, Tuple[Tuple[str, str], ...]],
        class_src: Dict[str, str],
        fps: Dict[str, str],
    ) -> bool:
        """Is a cached record still exact for the current corpus state?"""
        if record.fingerprint != fp:
            return False
        for key, want in record.decl_deps.items():
            if decl_fp_map.get(key) != want:
                return False
        for key, want in record.site_deps.items():
            if site_fp_map.get(key, ()) != want:
                return False
        for name, want in record.type_deps.items():
            src = class_src.get(name)
            current = (src, fps[src]) if src is not None and src in fps else None
            if current != want:
                return False
        return True

    def _mine_unit(
        self,
        unit: CompilationUnit,
        registry: TypeRegistry,
        units: Sequence[CompilationUnit],
        corpus_types: Sequence[NamedType],
        call_graph: CallGraph,
        decl_fp_map: Dict[str, Tuple[str, str]],
        site_fp_map: Dict[str, Tuple[Tuple[str, str], ...]],
        class_src: Dict[str, str],
        fps: Dict[str, str],
        fp: str,
    ) -> FileMineRecord:
        """Slice one unit, recording its dependency fingerprints."""
        recorder = _RecordingCallGraph(call_graph)
        extractor = JungloidExtractor(
            registry, units, corpus_types, recorder, self.extraction
        )
        examples = extractor.extract_unit(unit)
        type_deps = {}
        for name in _referenced_corpus_types(unit, registry, class_src):
            src = class_src.get(name)
            type_deps[name] = (src, fps[src]) if src is not None and src in fps else None
        record = FileMineRecord(
            source=unit.source,
            fingerprint=fp,
            examples=examples,
            faults=list(extractor.faults),
            type_deps=type_deps,
        )
        _record_call_deps(record, recorder, decl_fp_map, site_fp_map)
        return record


def _record_call_deps(
    record: FileMineRecord,
    recorder: _RecordingCallGraph,
    decl_fp_map: Dict[str, Tuple[str, str]],
    site_fp_map: Dict[str, Tuple[Tuple[str, str], ...]],
) -> None:
    """Add the call-graph queries ``recorder`` saw to ``record``'s deps."""
    for m in recorder.decl_queries:
        record.decl_deps[_method_key(m)] = decl_fp_map.get(_method_key(m))
    for m in recorder.site_queries:
        record.site_deps[_method_key(m)] = site_fp_map.get(_method_key(m), ())
