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
from ..collector import _collector_paused
from ..corpus import CorpusProgram
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
    RUNG_REBUILD,
    STAGE_ANALYSIS,
    STAGE_REBUILD,
    SnapshotManifest,
    SnapshotStore,
    StoreDiagnostics,
    StoreRecoveryError,
    load_with_recovery,
    save_stage_sidecar,
    try_load_stage_sidecar,
)
from ..typesystem import TypeRegistry
from .context import CursorContext
from .query import Query, TypeSpec, resolve_type_spec
from .results import Synthesis

#: The rebuild rung's retry budget: attempts, and the backoff before the
#: second (doubling after each failure). Corpus trees are read over the
#: same flaky filesystems snapshots are.
REBUILD_ATTEMPTS = 3
REBUILD_BACKOFF_MS = 50.0


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
        #: a graph and the one owner of the corpus state; :meth:`update_corpus`
        #: needs it. ``None`` without a corpus, and for a snapshot
        #: instance without a usable stage file.
        self.pipeline: Optional[CorpusPipeline] = pipeline
        if pipeline is not None:
            self._snapshot_mined: Tuple[Jungloid, ...] = ()
            self.graph = pipeline.graph
            #: Cast-verdict index: the pipeline's, or None (snapshot
            #: instances adopt theirs via set_verdicts).
            self.verdicts: Optional[CastVerdictIndex] = pipeline.verdicts
        else:
            # Pre-mined jungloids (snapshot fast-start) or no corpus at all.
            self._snapshot_mined = tuple(mined or ())
            # ``graph`` is already built from ``mined`` (a snapshot load's
            # audit graph) when given.
            self.graph = graph if graph is not None else JungloidGraph.build(
                registry, self._snapshot_mined, public_only=config.public_only
            )
            self.verdicts = None
        self._fallback_verdicts: Optional[CastVerdictIndex] = None
        #: The program the argument examples were mined from, and them.
        self._arguments: Tuple[Optional[CorpusProgram], List[ArgumentExample]] = (
            None,
            [],
        )
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
    def from_snapshot(
        cls,
        path: os.PathLike,
        config: ProspectorConfig = ProspectorConfig(),
        clock: Clock = SYSTEM_CLOCK,
        rebuild: Optional[Callable[[], "Prospector"]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "Prospector":
        """Fast-start from a persisted snapshot, surviving damage.

        Loads via the recovery ladder: the current snapshot, then the
        previous generation, then ``rebuild()`` — an instance built from
        the corpus — retried :data:`REBUILD_ATTEMPTS` times with
        exponential backoff from :data:`REBUILD_BACKOFF_MS` (``sleep``
        is the test seam). The rebuild rung returns the instance
        ``rebuild()`` built. The rung taken and every fault en route are
        available afterwards on :attr:`store_diagnostics`. Raises
        :class:`~repro.store.StoreRecoveryError` only if every rung
        fails.

        When the stage file next to the snapshot hashes to the loaded
        manifest's ``stages_sha256``, the incremental pipeline is
        rebuilt from its texts over the audit graph (every loaded file
        is mined and analyzed again), so :meth:`update_corpus` stays
        incremental across restarts and the pipeline's verdicts serve.
        A missing, damaged or foreign stage file (one saved with another
        generation, as after a fall back to ``<path>.prev``) leaves a
        query-only instance (updates then rebuild from scratch) — the
        stage file holds the corpus, never an answer. Such an instance serves the header ``analysis``
        section's verdicts; a section that fails its manifest digest or
        fails to decode leaves it verdict-less and is recorded as a
        :data:`~repro.store.STAGE_ANALYSIS` fault.

        The whole load runs under :func:`_collector_paused`.
        """
        with _collector_paused():
            diagnostics = StoreDiagnostics()
            loaded = load_with_recovery(SnapshotStore(path), diagnostics)
            if loaded is None:
                prospector = _rebuild_rung(rebuild, diagnostics, sleep)
                prospector.store_diagnostics = diagnostics
                return prospector
            # The load audit built this very graph; reuse it when it has the
            # flavour this instance serves.
            graph = loaded.graph if loaded.manifest.public_only == config.public_only else None
            pipeline = None
            data = try_load_stage_sidecar(path, loaded.manifest.stages_sha256)
            if data is not None:
                try:
                    pipeline = CorpusPipeline.from_artifacts(
                        loaded.registry,
                        data,
                        graph=graph,
                        extraction=config.extraction,
                        public_only=config.public_only,
                    )
                except Exception:  # noqa: BLE001 — serve the snapshot's answers
                    pass
            prospector = cls(
                loaded.registry,
                None,
                config,
                clock,
                mined=loaded.mined,
                store_diagnostics=diagnostics,
                pipeline=pipeline,
                graph=graph,
            )
            if (
                pipeline is None
                and loaded.analysis is not None
                and loaded.analysis_fault is None
            ):
                try:
                    prospector.set_verdicts(
                        CastVerdictIndex.from_dict(loaded.registry, loaded.analysis)
                    )
                except Exception as exc:  # noqa: BLE001 — serve verdict-less
                    diagnostics.record(
                        diagnostics.rung_used,
                        STAGE_ANALYSIS,
                        f"analysis section unusable: {exc!r}",
                    )
            return prospector

    def save_snapshot(self, path: os.PathLike, rotate: bool = True) -> SnapshotManifest:
        """Persist the registry + mined jungloids atomically (with
        checksum manifest and a retained previous generation).

        When the instance carries an incremental pipeline, its texts
        and load discipline are written first to the ``.stages`` file,
        whose SHA-256 the snapshot's manifest then records, so a restart
        from this snapshot can rebuild the pipeline and update
        incrementally."""
        stages_sha256 = (
            save_stage_sidecar(path, self.pipeline.to_stage_dict())
            if self.pipeline is not None
            else None
        )
        return SnapshotStore(path).save(
            self.registry,
            self.mined_jungloids,
            graph=self.graph,
            public_only=self.config.public_only,
            rotate=rotate,
            analysis=self.verdicts.to_dict() if self.verdicts is not None else None,
            stages_sha256=stages_sha256,
        )

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
        empty) or a stage file; raises :class:`RuntimeError` otherwise.
        """
        if self.pipeline is None:
            raise RuntimeError(
                "update_corpus needs the incremental pipeline; this instance "
                "was built without a corpus or a usable stage file"
            )
        stats = self.pipeline.update(upserts, removes)
        # The pipeline grafts into the graph self.search already serves.
        self.set_verdicts(self.pipeline.verdicts)
        return stats

    @property
    def corpus(self) -> Optional[CorpusProgram]:
        """The pipeline's current corpus program, if there is a pipeline."""
        return self.pipeline.program if self.pipeline is not None else None

    @property
    def mining(self) -> Optional[MiningResult]:
        """The pipeline's current mining result, if there is a pipeline."""
        return self.pipeline.mining if self.pipeline is not None else None

    @property
    def mined_jungloids(self) -> Tuple[Jungloid, ...]:
        """The mined jungloids the graph was spliced with — what a
        snapshot persists alongside the registry."""
        if self.pipeline is not None:
            return self.pipeline.suffixes
        return self._snapshot_mined

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
        """The committed corpus program's argument examples, mined once
        per program (an update replaces the program).

        An update that raised leaves its annotations on the program's
        ASTs; a sync of the committed texts undoes them first.
        """
        if self.pipeline is not None and not self.pipeline.settled:
            self.update_corpus()
        corpus = self.corpus
        if corpus is None:
            return []
        program, examples = self._arguments
        if program is not corpus:
            examples = ArgumentMiner(
                corpus.registry, corpus.units, corpus.corpus_types
            ).mine_arguments()
            self._arguments = (corpus, examples)
        return examples

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


def _rebuild_rung(
    rebuild: Optional[Callable[[], Prospector]],
    diagnostics: StoreDiagnostics,
    sleep: Callable[[float], None],
) -> Prospector:
    """The ladder's last rung: ``rebuild()`` with bounded retry."""
    if rebuild is not None:
        for attempt in range(1, REBUILD_ATTEMPTS + 1):
            diagnostics.rebuild_attempts = attempt
            try:
                prospector = rebuild()
            except Exception as exc:  # noqa: BLE001 — any rebuild failure retries
                diagnostics.record(RUNG_REBUILD, STAGE_REBUILD, f"attempt {attempt}: {exc}")
                if attempt < REBUILD_ATTEMPTS:
                    sleep(REBUILD_BACKOFF_MS * 2 ** (attempt - 1) / 1000.0)
                continue
            diagnostics.rung_used = RUNG_REBUILD
            return prospector
    raise StoreRecoveryError(
        "snapshot recovery exhausted:\n" + diagnostics.summary(),
        diagnostics=diagnostics,
    )


def repair_snapshot(
    path: os.PathLike, rebuild: Optional[Callable[[], Prospector]] = None
) -> Prospector:
    """Load ``path`` through the ladder, then save the instance back
    over it unless the current generation loaded cleanly.

    The rewrite is an ordinary :meth:`Prospector.save_snapshot`, so it
    carries the serving instance's verdicts and, when it has a
    pipeline, a fresh stage file. It uses ``rotate=False``: when
    recovery came *from* the previous generation, rotating the damaged
    current file over it would destroy the only good copy. Returns the
    loaded instance; its :attr:`~Prospector.store_diagnostics` say what
    was repaired.
    """
    prospector = Prospector.from_snapshot(path, rebuild=rebuild)
    if not prospector.store_diagnostics.ok:
        prospector.save_snapshot(path, rotate=False)
    return prospector
