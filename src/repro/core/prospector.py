"""The PROSPECTOR facade: the library's main entry point.

Wires everything together: API registry → (optional) corpus mining →
jungloid graph → ranked query answering → code generation. Mirrors the
tool of Section 5, minus the Eclipse GUI: :meth:`query` is the search
engine, :meth:`complete` is the content-assist integration.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..analysis import CastVerdictIndex, JungloidVerdict
from ..corpus import CorpusProgram, load_corpus_texts
from ..graph import JungloidGraph, graph_stats
from ..jungloids import CostModel, DEFAULT_COST_MODEL, Jungloid
from ..mining import (
    ArgumentExample,
    ArgumentMiner,
    ExtractionConfig,
    MiningResult,
)
from ..robustness import (
    Clock,
    CorpusDiagnostics,
    Deadline,
    QueryOutcome,
    SYSTEM_CLOCK,
)
from ..pipeline import CorpusPipeline, PipelineUpdateStats
from ..search import GraphSearch, SearchConfig, representatives
from ..store import (
    STAGE_ANALYSIS,
    RecoveredStore,
    SnapshotManifest,
    SnapshotStore,
    StoreDiagnostics,
    load_with_recovery,
    save_stage_sidecar,
    try_load_stage_sidecar,
)
from ..typesystem import TypeRegistry
from .context import CursorContext
from .query import Query, TypeSpec, resolve_type_spec
from .results import Synthesis


@dataclass(frozen=True)
class ProspectorConfig:
    """Top-level knobs; the defaults replicate the paper's tool."""

    public_only: bool = True
    # default_factory, not a class-level instance: a single shared default
    # object would alias every config constructed without overrides.
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: Collapse parallel jungloids to one representative (paper's
    #: future-work suggestion; off by default to match the evaluation).
    cluster_results: bool = False


class Prospector:
    """Jungloid synthesis over an API registry plus an optional corpus."""

    def __init__(
        self,
        registry: TypeRegistry,
        corpus: Optional[CorpusProgram] = None,
        config: ProspectorConfig = ProspectorConfig(),
        clock: Clock = SYSTEM_CLOCK,
        mined: Optional[Sequence[Jungloid]] = None,
        store_diagnostics: Optional[StoreDiagnostics] = None,
        pipeline: Optional[CorpusPipeline] = None,
        graph: Optional[JungloidGraph] = None,
    ):
        self.registry = registry
        self.config = config
        self.corpus = corpus
        self.clock = clock
        #: Recovery report when this instance came from a snapshot load.
        self.store_diagnostics = store_diagnostics
        if pipeline is None and corpus is not None:
            pipeline = CorpusPipeline.from_program(
                registry,
                corpus,
                extraction=config.extraction,
                public_only=config.public_only,
            )
        #: The staged incremental pipeline, the one way a corpus becomes
        #: a graph; :meth:`update_corpus` needs it. ``None`` for a
        #: snapshot instance without a usable stage sidecar.
        self.pipeline: Optional[CorpusPipeline] = pipeline
        if pipeline is not None:
            self.mining: Optional[MiningResult] = pipeline.mining
            self.corpus = pipeline.program
            mined_list = list(pipeline.suffixes)
            self.graph = pipeline.graph
            #: Cast-verdict index: the pipeline's, or None (snapshot
            #: instances adopt theirs via set_verdicts).
            self.verdicts: Optional[CastVerdictIndex] = pipeline.verdicts
        else:
            # Pre-mined jungloids (snapshot fast-start) or no corpus at all.
            self.mining = None
            mined_list = list(mined or ())
            # ``graph`` is already built from ``mined`` (a snapshot load's
            # audit graph) when given.
            self.graph = graph if graph is not None else JungloidGraph.build(
                registry, mined_list, public_only=config.public_only
            )
            self.verdicts = None
        #: The mined jungloids the graph was spliced with — what a
        #: snapshot persists alongside the registry.
        self.mined_jungloids: Tuple[Jungloid, ...] = tuple(mined_list)
        self._fallback_verdicts: Optional[CastVerdictIndex] = None
        self.search = GraphSearch(
            self.graph,
            cost_model=config.cost_model,
            config=config.search,
            clock=clock,
            verdicts=self.verdicts,
        )

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------

    @classmethod
    def from_texts(
        cls,
        api_texts: Iterable[Tuple[str, str]],
        corpus_texts: Iterable[Tuple[str, str]] = (),
        config: ProspectorConfig = ProspectorConfig(),
    ) -> "Prospector":
        """Build from stub and corpus source texts."""
        from ..apispec import load_api_texts

        registry = load_api_texts(list(api_texts))
        corpus_list = list(corpus_texts)
        corpus = load_corpus_texts(registry, corpus_list) if corpus_list else None
        return cls(registry, corpus, config)

    @classmethod
    def from_snapshot(
        cls,
        path: os.PathLike,
        config: ProspectorConfig = ProspectorConfig(),
        clock: Clock = SYSTEM_CLOCK,
        rebuild: Optional[
            Callable[[], Tuple[TypeRegistry, Sequence[Jungloid]]]
        ] = None,
        max_rebuild_attempts: int = 3,
        backoff_ms: float = 50.0,
        sleep: Optional[Callable[[float], None]] = None,
        load_stages: bool = True,
    ) -> "Prospector":
        """Fast-start from a persisted snapshot, surviving damage.

        Loads via the store's recovery ladder (current snapshot →
        previous generation → ``rebuild()`` with bounded retry); the
        rung taken and every fault en route are available afterwards on
        :attr:`store_diagnostics`. Raises
        :class:`~repro.store.StoreRecoveryError` only if every rung
        fails.

        A header ``analysis`` section that fails its manifest digest or
        fails to decode leaves the instance verdict-less and is recorded
        as a :data:`~repro.store.STAGE_ANALYSIS` fault.

        When ``load_stages`` is true and a stage sidecar saved with the
        loaded snapshot generation sits next to it, the incremental
        pipeline is rehydrated from it so :meth:`update_corpus` stays
        incremental across restarts. A missing, damaged or unbound
        sidecar (one saved with another generation, as after a fall
        back to ``<path>.prev``) silently degrades to a query-only
        instance (updates then rebuild from scratch) — the sidecar is
        an accelerator, never a correctness dependency.
        """
        store = SnapshotStore(path)
        recovered: RecoveredStore = load_with_recovery(
            store,
            rebuild=rebuild,
            max_rebuild_attempts=max_rebuild_attempts,
            backoff_ms=backoff_ms,
            sleep=sleep,
        )
        # The load audit built this very graph; reuse it when it has the
        # flavour this instance serves.
        graph = recovered.graph if recovered.public_only == config.public_only else None
        prospector = cls(
            recovered.registry,
            None,
            config,
            clock,
            mined=recovered.mined,
            store_diagnostics=recovered.diagnostics,
            graph=graph,
        )
        if recovered.analysis is not None:
            try:
                prospector.set_verdicts(
                    CastVerdictIndex.from_dict(
                        prospector.registry, recovered.analysis
                    )
                )
            except Exception as exc:  # noqa: BLE001 — serve verdict-less
                recovered.diagnostics.record(
                    recovered.rung_used,
                    STAGE_ANALYSIS,
                    f"analysis section unusable: {exc!r}",
                )
        if load_stages and recovered.manifest is not None:
            prospector._adopt_stage_sidecar(path, recovered.manifest.payload_sha256)
        return prospector

    def _adopt_stage_sidecar(self, path: os.PathLike, snapshot_sha256: str) -> bool:
        """Rehydrate :attr:`pipeline` from a snapshot's stage sidecar.

        ``snapshot_sha256`` is the payload digest of the generation
        actually loaded; a sidecar saved with another one is refused.
        Best-effort: any damage or format drift leaves the instance as
        loaded (snapshot answers stay authoritative) and returns False.
        """
        data = try_load_stage_sidecar(path, snapshot_sha256)
        if data is None:
            return False
        try:
            pipeline = CorpusPipeline.from_artifacts(
                self.registry,
                data,
                graph=self.graph,
                extraction=self.config.extraction,
                public_only=self.config.public_only,
            )
        except Exception:
            return False
        self.pipeline = pipeline
        self.mining = pipeline.mining
        self.corpus = pipeline.program
        self.mined_jungloids = tuple(pipeline.suffixes)
        if pipeline.verdicts is not None:
            self.set_verdicts(pipeline.verdicts)
        self._argument_examples_cache = None
        return True

    def save_snapshot(self, path: os.PathLike, rotate: bool = True) -> SnapshotManifest:
        """Persist the registry + mined jungloids atomically (with
        checksum manifest and a retained previous generation).

        When the instance carries an incremental pipeline, its stage
        artifacts are persisted alongside in a ``.stages`` sidecar so a
        later ``index update`` against this snapshot re-mines only
        touched files."""
        store = SnapshotStore(path)
        manifest = store.save(
            self.registry,
            self.mined_jungloids,
            graph=self.graph,
            public_only=self.config.public_only,
            rotate=rotate,
            analysis=self.verdicts.to_dict() if self.verdicts is not None else None,
        )
        if self.pipeline is not None:
            save_stage_sidecar(
                path, self.pipeline.to_stage_dict(), manifest.payload_sha256
            )
        return manifest

    # ------------------------------------------------------------------
    # Incremental corpus updates
    # ------------------------------------------------------------------

    def update_corpus(
        self,
        upserts: Iterable[Tuple[str, str]] = (),
        removes: Iterable[str] = (),
    ) -> PipelineUpdateStats:
        """Apply file-level corpus edits, re-mining only what changed.

        ``upserts`` are ``(source_name, text)`` pairs that add or replace
        corpus files; ``removes`` names files to drop. The staged
        pipeline fingerprints every file, reuses cached mined examples
        whose dependencies are untouched, and grafts the suffix delta
        into the live graph — unaffected distance-cache entries survive.

        Requires the instance to have been built from a corpus (possibly
        empty) or a stage sidecar; raises :class:`RuntimeError` otherwise.
        """
        if self.pipeline is None:
            raise RuntimeError(
                "update_corpus needs the incremental pipeline; this instance "
                "was built without a corpus or a usable stage sidecar"
            )
        stats = self.pipeline.update(upserts, removes)
        self.mining = self.pipeline.mining
        self.corpus = self.pipeline.program
        self.mined_jungloids = tuple(self.pipeline.suffixes)
        # The pipeline grafts into the graph self.search already serves.
        self.set_verdicts(self.pipeline.verdicts)
        self._argument_examples_cache = None
        return stats

    # ------------------------------------------------------------------
    # Static viability analysis
    # ------------------------------------------------------------------

    def set_verdicts(self, verdicts: Optional[CastVerdictIndex]) -> None:
        """Attach (or replace) the cast-verdict index; the search engine
        ranks by it from the next query on."""
        self.verdicts = verdicts
        self._fallback_verdicts = None
        self.search.set_verdicts(verdicts)

    def _verdict_index(self) -> CastVerdictIndex:
        """The attached index, or a relatedness-only fallback.

        The fallback has zero corpus witnesses, so every downcast
        resolves from type structure alone (PLAUSIBLE when related,
        INVIABLE when not) — weaker than corpus evidence but still a
        sound basis for :meth:`verify`.
        """
        if self.verdicts is not None:
            return self.verdicts
        if self._fallback_verdicts is None:
            self._fallback_verdicts = CastVerdictIndex(self.registry)
        return self._fallback_verdicts

    def verify(self, jungloid: Jungloid) -> JungloidVerdict:
        """Static viability verdict for a jungloid — no execution.

        The composed worst-case over the jungloid's downcast steps:
        ``JUSTIFIED`` (corpus data-flow supports every cast; vacuous for
        cast-free jungloids), ``PLAUSIBLE`` (types related, no witness),
        or ``INVIABLE`` (some cast no corpus path can satisfy).
        """
        return self._verdict_index().verdict_for_jungloid(jungloid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def type(self, spec: TypeSpec):
        """Resolve a type name against the API registry."""
        return resolve_type_spec(self.registry, spec)

    def query(self, t_in: TypeSpec, t_out: TypeSpec) -> List[Synthesis]:
        """Answer a jungloid query; results are ranked best-first."""
        return list(self.query_outcome(t_in, t_out).results)

    def query_outcome(
        self,
        t_in: TypeSpec,
        t_out: TypeSpec,
        time_budget_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> QueryOutcome:
        """Budget-aware query: ranked :class:`Synthesis` results wrapped in
        a :class:`~repro.robustness.QueryOutcome`.

        On deadline expiry the engine degrades (full window → zero-extra
        window → shortest path) and the outcome says so; with no budget
        the results equal :meth:`query` exactly.
        """
        q = Query.of(self.registry, t_in, t_out)
        return self._outcome([q.t_in], q.t_out, time_budget_ms, deadline)

    def query_batch(
        self,
        pairs: Sequence[Tuple[TypeSpec, TypeSpec]],
        time_budget_ms: Optional[float] = None,
    ) -> List[QueryOutcome]:
        """Answer many queries in one call, amortizing shared work.

        The serving layer groups the batch by target so every distinct
        target pays for a single backward distance map (Section 5's
        multi-source trick generalized across requests). Outcomes come
        back in input order, each carrying ranked :class:`Synthesis`
        results; a fault or deadline on one query degrades only that
        query's outcome.
        """
        resolved = [Query.of(self.registry, a, b) for a, b in pairs]
        outcomes = self.search.solve_batch(
            [(q.t_in, q.t_out) for q in resolved],
            time_budget_ms=time_budget_ms,
        )
        return [o.with_results(self._package(o.results)) for o in outcomes]

    def timed_query(
        self, t_in: TypeSpec, t_out: TypeSpec
    ) -> Tuple[List[Synthesis], float]:
        """Run a query and report wall-clock seconds (Table 1's Time column)."""
        start = time.perf_counter()
        results = self.query(t_in, t_out)
        return results, time.perf_counter() - start

    def complete(self, context: CursorContext) -> List[Synthesis]:
        """Content-assist entry: infer queries from the cursor context.

        Runs the multi-source search (all visible variables plus ``void``)
        in one pass, as Section 5 describes.
        """
        return list(self.complete_outcome(context).results)

    def complete_outcome(
        self,
        context: CursorContext,
        time_budget_ms: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> QueryOutcome:
        """Budget-aware content assist (see :meth:`query_outcome`)."""
        return self._outcome(
            context.source_types(), context.target_type, time_budget_ms, deadline
        )

    def _outcome(
        self,
        sources: Sequence,
        target,
        time_budget_ms: Optional[float],
        deadline: Optional[Deadline],
    ) -> QueryOutcome:
        """One query through the engine, its results packaged."""
        if deadline is None and time_budget_ms is not None:
            deadline = Deadline.after(time_budget_ms, self.clock)
        outcome = self.search.solve_multi_outcome(sources, target, deadline=deadline)
        return outcome.with_results(self._package(outcome.results))

    def _package(self, results) -> List[Synthesis]:
        jungloids = [r.jungloid for r in results]
        sources = [r.source_type for r in results]
        if self.config.cluster_results:
            keep = set(id(j) for j in representatives(jungloids))
            pairs = [(j, s) for j, s in zip(jungloids, sources) if id(j) in keep]
        else:
            pairs = list(zip(jungloids, sources))
        verdicts = self.verdicts
        return [
            Synthesis(
                rank=i + 1,
                jungloid=j,
                source_type=s,
                verdict=(
                    verdicts.verdict_for_jungloid(j) if verdicts is not None else None
                ),
            )
            for i, (j, s) in enumerate(pairs)
        ]

    # ------------------------------------------------------------------
    # Section 4.3: Object/String argument suggestions
    # ------------------------------------------------------------------

    def _argument_examples(self) -> List[ArgumentExample]:
        if self.corpus is None:
            return []
        cached = getattr(self, "_argument_examples_cache", None)
        if cached is None:
            cached = ArgumentMiner(
                self.corpus.registry,
                self.corpus.units,
                self.corpus.corpus_types,
            ).mine_arguments()
            self._argument_examples_cache = cached
        return cached

    def suggest_arguments(
        self, owner: TypeSpec, method_name: str, parameter_index: int = 0
    ) -> List[ArgumentExample]:
        """Mined suggestions for a weakly-typed (Object/String) parameter.

        Section 4.3's extension: the corpus shows which values actually
        flow into a parameter declared ``Object`` or ``String``; the
        returned examples are ordered cheapest-chain first.
        """
        owner_type = resolve_type_spec(self.registry, owner)
        matches = [
            e
            for e in self._argument_examples()
            if e.method.name == method_name
            and e.parameter_index == parameter_index
            and (e.method.owner == owner_type
                 or self.registry.is_subtype(owner_type, e.method.owner))
        ]
        matches.sort(key=lambda e: (self.config.cost_model.cost(e.jungloid),
                                    e.jungloid.render_expression("x")))
        return matches

    def observed_argument_types(
        self, owner: TypeSpec, method_name: str, parameter_index: int = 0
    ) -> List[str]:
        """The concrete types the corpus passes into the parameter —
        Section 4.3's "refined type" for an Object/String parameter."""
        return sorted(
            {
                str(e.jungloid.output_type)
                for e in self.suggest_arguments(owner, method_name, parameter_index)
            }
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def corpus_diagnostics(self) -> Optional[CorpusDiagnostics]:
        """Quarantine report from a lenient corpus load, if one happened."""
        return self.corpus.diagnostics if self.corpus is not None else None

    def stats(self) -> dict:
        """Registry + graph + mining summary (Section 5 reporting)."""
        info = {
            "registry": self.registry.stats(),
            "graph": graph_stats(self.graph).rows(),
        }
        if self.mining is not None:
            info["mining"] = {
                "examples": self.mining.example_count,
                "suffixes": self.mining.suffix_count,
                "extraction_faults": self.mining.fault_count,
                **self.mining.trimming_summary(),
            }
        return info
