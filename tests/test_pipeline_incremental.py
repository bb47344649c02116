"""Differential tests for the incremental pipeline: every scripted
sequence of corpus edits must leave the ranked answers byte-identical to
a from-scratch build of the same final texts."""

import pytest

from repro import Prospector, Query
from repro.corpus import load_corpus_texts
from repro.data import corpus_texts, standard_corpus
from repro.eval import TABLE1_PROBLEMS
from repro.minijava.ast import CallExpr, method_expressions
from repro.pipeline import CorpusPipeline
from repro.search import compile_graph, distances_for
from repro.search import engine as search_engine
from repro.typesystem import named

from .conftest import SMALL_CORPUS
from .resolution_oracle import (
    checked_narrowing,
    VERSIONS,
    annotation_dump,
    assert_matches_fresh,
    fresh_program,
    quarantine,
)
from .resolution_oracle import ranked_answers as ranked_answers_with_verdicts

#: A second client for the small corpus: same API, a different route to
#: an Item plus a reader-side chain, so edits move real mined suffixes.
SMALL_CORPUS_B = """
package client;

import demo.ui.Panel;
import demo.ui.Widget;
import demo.ui.Item;

public class Picker {
  public Item firstWidgetItem(Panel panel) {
    Widget w = panel.widget;
    Item item = (Item) w;
    return item;
  }
}
"""

SMALL_CORPUS_C = """
package client;

import demo.ui.Viewer;
import demo.ui.IStructuredSelection;

public class Chooser {
  public Object firstOf(Viewer viewer) {
    IStructuredSelection ss = (IStructuredSelection) viewer.getSelection();
    return ss.getFirstElement();
  }
}
"""


def ranked_answers(prospector, queries):
    return [
        [
            s.jungloid.render_expression("x")
            for s in prospector.query(t_in, t_out)
        ]
        for t_in, t_out in queries
    ]


SMALL_QUERIES = [
    ("demo.ui.ISelection", "demo.ui.Item"),
    ("demo.ui.Panel", "demo.ui.Item"),
    ("demo.ui.Viewer", "java.lang.Object"),
    ("demo.io.InputStream", "java.lang.String"),
]


def small_prospector_for(registry, texts):
    return Prospector(registry, load_corpus_texts(registry, texts))


def assert_matches_scratch(registry, live, texts, queries):
    scratch = small_prospector_for(registry, texts)
    assert ranked_answers(live, queries) == ranked_answers(scratch, queries)


class TestScriptedSequences:
    """Three scripted update sequences, each differentially checked
    against a from-scratch build after every step."""

    def test_sequence_modify(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        # Step 1: append a class that mines a shorter cast route.
        addon = """
public class Shortcut {
  public Item direct(Viewer viewer) {
    Item item = (Item) viewer.getSelection();
    return item;
  }
}
"""
        texts = [("handler.mj", SMALL_CORPUS + addon)]
        live.update_corpus(upserts=texts)
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)
        # Step 2: revert to the original.
        texts = [("handler.mj", SMALL_CORPUS)]
        live.update_corpus(upserts=texts)
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)

    def test_sequence_add_remove(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        # Add two files, one at a time.
        texts = texts + [("picker.mj", SMALL_CORPUS_B)]
        live.update_corpus(upserts=[("picker.mj", SMALL_CORPUS_B)])
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)
        texts = texts + [("chooser.mj", SMALL_CORPUS_C)]
        live.update_corpus(upserts=[("chooser.mj", SMALL_CORPUS_C)])
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)
        # Remove the original file: its suffixes must un-splice.
        texts = texts[1:]
        live.update_corpus(removes=["handler.mj"])
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)

    def test_sequence_mixed(self, small_registry):
        texts = [
            ("handler.mj", SMALL_CORPUS),
            ("picker.mj", SMALL_CORPUS_B),
            ("chooser.mj", SMALL_CORPUS_C),
        ]
        live = small_prospector_for(small_registry, texts)
        # One update that adds, changes, and removes at once.
        changed = SMALL_CORPUS_B + "\n// trailing note\n"
        texts = [
            ("handler.mj", SMALL_CORPUS),
            ("picker.mj", changed),
            ("extra.mj", SMALL_CORPUS_C.replace("Chooser", "Second")),
        ]
        stats = live.update_corpus(
            upserts=[
                ("picker.mj", changed),
                ("extra.mj", SMALL_CORPUS_C.replace("Chooser", "Second")),
            ],
            removes=["chooser.mj"],
        )
        assert set(stats.files_changed) == {"picker.mj"}
        assert set(stats.files_added) == {"extra.mj"}
        assert set(stats.files_removed) == {"chooser.mj"}
        assert_matches_scratch(small_registry, live, texts, SMALL_QUERIES)


class TestUpsertOrder:
    @pytest.mark.parametrize("source", ["handler.mj", "picker.mj"], ids=["existing", "new"])
    def test_a_source_named_twice_keeps_its_last_text(self, small_registry, source):
        pipeline = CorpusPipeline.build(small_registry, [("handler.mj", SMALL_CORPUS)])
        first, last = SMALL_CORPUS_B, SMALL_CORPUS_B + "\n// last\n"
        pipeline.update([(source, first), ("chooser.mj", SMALL_CORPUS_C), (source, last)])
        assert dict(pipeline.texts)[source] == last
        assert [s for s, _ in pipeline.texts] == list(
            dict.fromkeys(["handler.mj", source, "chooser.mj"])
        )


class TestTable1Differential:
    """The acceptance bar: on the bundled corpus, incremental updates
    answer every Table-1 query identically to a from-scratch build."""

    @pytest.fixture()
    def setup(self, standard_registry_and_corpus):
        registry, corpus = standard_registry_and_corpus
        return registry, Prospector(registry, corpus)

    def test_touch_one_file_answers_identical(self, setup):
        registry, live = setup
        queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        name, original = live.pipeline.texts[0]
        stats = live.update_corpus([(name, original + "\n// touched\n")])
        # Only the touched file re-mined.
        assert stats.files_remined == (name,)
        assert stats.files_reused == stats.files_total - 1
        scratch = Prospector(
            registry,
            pipeline=CorpusPipeline.build(registry, list(live.pipeline.texts)),
        )
        assert ranked_answers(live, queries) == ranked_answers(scratch, queries)

    def test_remove_and_restore_answers_identical(self, setup):
        registry, live = setup
        queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        baseline = ranked_answers(live, queries)
        name, original = live.pipeline.texts[0]
        removed = live.update_corpus(removes=[name])
        assert removed.suffixes_removed > 0
        scratch = Prospector(
            registry,
            pipeline=CorpusPipeline.build(registry, list(live.pipeline.texts)),
        )
        assert ranked_answers(live, queries) == ranked_answers(scratch, queries)
        live.update_corpus([(name, original)])
        assert ranked_answers(live, queries) == baseline


def answer_key(results):
    """Rank, source, rendering and verdict of a ranked answer."""
    return [
        (s.rank, str(s.source_type), s.jungloid.render_expression("x"),
         s.verdict.verdict if s.verdict is not None else None)
        for s in results
    ]


class TestEmptyCorpusStart:
    """An instance built from an empty corpus takes its first files
    through :meth:`Prospector.update_corpus`."""

    def test_filled_by_updates_answers_like_a_fresh_build(
        self, standard_registry_and_corpus
    ):
        registry, _ = standard_registry_and_corpus
        live = Prospector(registry, load_corpus_texts(registry, []))
        assert live.mined_jungloids == ()
        stats = live.update_corpus(corpus_texts())
        assert len(stats.files_added) == len(corpus_texts())
        fresh = Prospector(registry, standard_corpus(registry))
        pairs = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        for t_in, t_out in pairs:
            assert answer_key(live.query(t_in, t_out)) == answer_key(
                fresh.query(t_in, t_out)
            ), (t_in, t_out)
        live_batch = [answer_key(o.results) for o in live.query_batch(pairs)]
        fresh_batch = [answer_key(o.results) for o in fresh.query_batch(pairs)]
        assert live_batch == fresh_batch

    def test_program_with_units_but_no_texts_is_refused(self, small_registry):
        program = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        program.texts = []
        with pytest.raises(ValueError):
            Prospector(small_registry, program)


def _finite(dist, graph):
    """A map's finite entries on the nodes ``graph`` has."""
    return {node: dist.get(node) for node in graph.nodes if dist.get(node) is not None}


class TestEditsPatchTheSnapshot:
    """A counter gate with no wall clock: suffix-changing edits of the
    bundled corpus patch the compiled graph instead of recompiling it,
    keep the cached map of every probe target they leave unchanged (on
    the nodes left after the edit), and answer Table 1 as a fresh build
    does, singly and in a batch."""

    def test_edits_patch_and_keep_unmoved_maps(
        self, standard_registry_and_corpus, monkeypatch
    ):
        registry, corpus = standard_registry_and_corpus
        compiled_graphs = []

        def counting_compile(graph, *args, **kwargs):
            compiled_graphs.append(graph)
            return compile_graph(graph, *args, **kwargs)

        monkeypatch.setattr(search_engine, "compile_graph", counting_compile)
        live = Prospector(registry, corpus)
        queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        probes = sorted(
            {Query.of(registry, t_in, t_out).t_out for t_in, t_out in queries}, key=str
        )
        texts = dict(live.pipeline.texts)
        edits = [
            {"removes": ["gef_canvas.mj"]},
            {"upserts": [("gef_canvas.mj", texts["gef_canvas.mj"])]},
            {"removes": ["resource_selection.mj", "map_entries.mj"]},
            {"upserts": [(n, texts[n]) for n in ("map_entries.mj", "resource_selection.mj")]},
        ]
        kept = 0
        for edit in edits:
            before = {}
            for target in probes:
                dist = live.search._distances(target)
                before[target] = (dist, _finite(dist, live.graph))
            stats = live.update_corpus(**edit)
            assert stats.suffixes_added or stats.suffixes_removed
            fresh = compile_graph(live.graph, live.search._edge_cost)
            live.search._compiled_graph()
            for target, (dist, finite) in before.items():
                left = {n: d for n, d in finite.items() if live.graph.has_node(n)}
                if _finite(distances_for(fresh, target), live.graph) == left:
                    assert live.search._dist_cache._entries.get(target) is dist, target
                    kept += 1
            scratch = Prospector(
                registry,
                pipeline=CorpusPipeline.build(registry, list(live.pipeline.texts)),
            )
            expected = ranked_answers(scratch, queries)
            assert ranked_answers(live, queries) == expected
            batch = live.query_batch(queries)
            assert [
                [s.jungloid.render_expression("x") for s in o.results] for o in batch
            ] == expected
        assert kept >= len(probes)
        # One full compile, at the first query; every edit was a patch.
        assert sum(graph is live.graph for graph in compiled_graphs) == 1


class TestNoOpUpdates:
    def test_noop_preserves_revision_and_caches(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        live.query(sel, item)  # prime the distance cache
        revision = live.graph.revision
        cached = live.search._dist_cache.get(item)
        assert cached is not None
        stats = live.update_corpus(upserts=[("handler.mj", SMALL_CORPUS)])
        assert stats.noop
        assert live.graph.revision == revision
        # Same hash -> nothing flushed: the cached distances survive
        # untouched (satellite: no-op edits must not invalidate).
        assert live.search._dist_cache.get(item) is cached

    def test_noop_keeps_compiled_kernel(self, standard_registry_and_corpus):
        registry, corpus = standard_registry_and_corpus
        live = Prospector(registry, corpus)
        compiled = live.search._compiled_graph()
        name, text = live.pipeline.texts[0]
        assert live.update_corpus([(name, text)]).noop
        assert live.search._compiled_graph() is compiled


class TestAnalysisInvalidation:
    """Verdict observations are cached per file and recomputed only for
    files the update re-mined."""

    def test_initial_build_analyzes_every_file(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS), ("picker.mj", SMALL_CORPUS_B)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        stats = pipeline.last_stats
        assert set(stats.files_reanalyzed) == {"handler.mj", "picker.mj"}
        assert stats.casts_reanalyzed > 0
        assert pipeline.verdicts is not None
        assert len(pipeline.verdicts) > 0

    def test_warm_update_reanalyzes_only_remined_files(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS), ("picker.mj", SMALL_CORPUS_B)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        stats = pipeline.update(
            [("picker.mj", SMALL_CORPUS_B + "\n// touched\n")], ()
        )
        assert set(stats.files_reanalyzed) == set(stats.files_remined)
        assert "handler.mj" not in stats.files_reanalyzed
        assert stats.timings.analyze_ms >= 0.0

    def test_noop_update_reanalyzes_nothing(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        verdicts = pipeline.verdicts
        stats = pipeline.update([("handler.mj", SMALL_CORPUS)], ())
        assert stats.noop
        assert stats.files_reanalyzed == ()
        assert stats.casts_reanalyzed == 0
        assert pipeline.verdicts is verdicts

    def test_verdicts_follow_corpus_edits(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        pairs_before = set(pipeline.verdicts.witnessed_pairs)
        assert ("demo.ui.ISelection", "demo.ui.IStructuredSelection") in (
            pairs_before
        )
        pipeline.update((), ["handler.mj"])
        assert len(pipeline.verdicts) == 0
        pipeline.update(texts, ())
        assert set(pipeline.verdicts.witnessed_pairs) == pairs_before

    def test_update_stats_serialize_analysis_fields(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        pipeline = CorpusPipeline.build(small_registry, texts)
        stats = pipeline.last_stats
        assert stats.files_reanalyzed == ("handler.mj",)
        assert stats.casts_reanalyzed > 0
        assert stats.timings.analyze_ms > 0


#: A cast whose second flow reaches an allocation two files away: a.mj
#: casts what b.mj's X.f() returns, which is whatever c.mj's Y.g() returns.
CAPPED_A = """
package client;

import demo.ui.Widget;
import demo.ui.Item;

public class A {
  public Item pick() {
    Widget w = new Widget();
    w = X.f();
    Item item = (Item) w;
    return item;
  }
}
"""

CAPPED_B = """
package client;

import demo.ui.Widget;

public class X {
  public static Widget f() {
    return Y.g();
  }
}
"""


def capped_c(allocation):
    return f"""
package client;

import demo.ui.Widget;
import demo.ui.Item;
import demo.ui.Panel;

public class Y {{
  public static Widget g() {{
    return {allocation};
  }}
}}
"""


def verdict_of(pipeline, pair):
    pairs = pipeline.verdicts.to_dict()["pairs"]
    return {(p["operand"], p["target"]): p["verdict"] for p in pairs}[pair]


class TestAnalysisDependencies:
    """A file's recorded slice dependencies cover what the analyzer read,
    not only what the capped extractor reached."""

    def test_verdicts_match_fresh_build_when_mining_stops_early(self, small_registry):
        from repro.mining import ExtractionConfig

        config = ExtractionConfig(max_examples_per_cast=1)
        texts = [
            ("a.mj", CAPPED_A),
            ("b.mj", CAPPED_B),
            ("c.mj", capped_c("new Item(new Panel())")),
        ]
        live = CorpusPipeline.build(small_registry, texts, extraction=config)
        pair = ("demo.ui.Widget", "demo.ui.Item")
        assert verdict_of(live, pair) == "justified"

        edited = [("c.mj", capped_c("new Widget()"))]
        stats = live.update(edited, ())
        assert "a.mj" in stats.files_reanalyzed
        fresh = CorpusPipeline.build(
            small_registry, texts[:2] + edited, extraction=config
        )
        assert verdict_of(fresh, pair) == "inviable"
        assert live.verdicts.to_dict() == fresh.verdicts.to_dict()


class TestSelectiveInvalidation:
    def test_unaffected_target_survives_update(self, small_registry):
        texts = [("handler.mj", SMALL_CORPUS)]
        live = small_prospector_for(small_registry, texts)
        item = small_registry.lookup("demo.ui.Item")
        stream = small_registry.lookup("demo.io.InputStream")
        live.search._distances(item)
        kept = live.search._distances(stream)
        # Removing the corpus file un-splices the UI-cluster suffixes;
        # InputStream is unreachable from any changed node.
        stats = live.update_corpus(removes=["handler.mj"])
        assert stats.affected_targets > 0
        assert live.search._distances(stream) is kept
        assert item not in live.search._dist_cache


@pytest.fixture
def narrowing():
    """Check every record the dependency indexes let a sync reuse unchecked."""
    with checked_narrowing() as skips:
        yield skips


def _edit_texts(*names_versions):
    return [(name, VERSIONS[name][version]) for name, version in names_versions]


def _take_overloads(pipeline):
    """Parameter types of the ``take`` overload each call in b.mj picked."""
    unit = next(u for u in pipeline.program.units if u.source == "b.mj")
    return [
        [str(p) for p in e.resolved_method.parameter_types]
        for c in unit.classes
        for m in c.methods
        for e in method_expressions(m)
        if isinstance(e, CallExpr) and e.name == "take"
    ]


@pytest.mark.usefixtures("narrowing")
class TestIncrementalResolution:
    """Stage 3 re-resolves the bodies only of files whose lookups changed,
    and the result equals a fresh lenient load after every sync."""

    BASE = (("a.mj", 0), ("b.mj", 0), ("c.mj", 0), ("e.mj", 0), ("u.mj", 0), ("h.mj", 0))

    def _sync(self, registry, pipeline, texts):
        stats = pipeline.sync(texts)
        assert_matches_fresh(registry, pipeline, texts)
        return set(stats.files_reresolved)

    def test_initial_build_resolves_every_file(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert pipeline.last_stats.files_reresolved == tuple(s for s, _ in texts)
        assert_matches_fresh(small_registry, pipeline, texts)

    @pytest.mark.parametrize("lenient", [True, False])
    def test_a_loaded_corpus_is_resolved_once(self, small_registry, lenient):
        # The pipeline adopts the loader's resolution records: its initial
        # sync re-resolves nothing, and answers like a staged build.
        texts = _edit_texts(*self.BASE)
        if lenient:  # one file fails to resolve, one to check
            texts += _edit_texts(("x.mj", 0), ("s.mj", 0))
        program = load_corpus_texts(small_registry, texts, lenient=lenient)
        loaded = Prospector(small_registry, program)
        assert loaded.pipeline.last_stats.files_reresolved == ()
        built = CorpusPipeline.build(small_registry, texts, lenient=lenient)
        assert annotation_dump(loaded.corpus.units) == annotation_dump(built.program.units)
        assert ranked_answers_with_verdicts(loaded) == ranked_answers_with_verdicts(
            Prospector(small_registry, pipeline=built)
        )
        if lenient:
            assert quarantine(loaded.corpus) == quarantine(built.program)
            assert {"x.mj", "s.mj"} <= set(loaded.corpus.diagnostics.quarantined_sources())
            assert_matches_fresh(small_registry, loaded.pipeline, texts)

    def test_bundled_corpus_is_resolved_once(self, standard_prospector):
        stats = standard_prospector.pipeline.last_stats
        assert stats.files_reresolved == () and stats.files_total == 12

    def test_a_program_belongs_to_its_first_pipeline(self, small_registry):
        # Two pipelines from one load: the first takes its parses and
        # resolution records, the second parses and resolves afresh, so
        # the first's updates cannot reach the second's units.
        texts = _edit_texts(*self.BASE)
        program = load_corpus_texts(small_registry, texts, lenient=True)
        first = Prospector(small_registry, program)
        second = Prospector(small_registry, program)
        assert program.resolution_cache is None
        assert first.pipeline.last_stats.files_reresolved == ()
        assert second.pipeline.last_stats.files_reresolved == tuple(s for s, _ in texts)
        want = annotation_dump(fresh_program(small_registry, texts).units)
        first.update_corpus(upserts=_edit_texts(("a.mj", 1)))
        assert annotation_dump(second.corpus.units) == want

    def test_a_touch_checks_no_record_it_cannot_change(self, small_registry, narrowing):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        narrowing.clear()
        touched = [(s, t + "// touched\n" if s == "u.mj" else t) for s, t in texts]
        stats = pipeline.sync(touched)
        assert stats.files_rechecked == ()
        kept = len(texts) - 1
        assert narrowing == {"declared": kept, "entry": kept, "record": kept}

    def test_a_touch_rechecks_the_files_that_recorded_its_keys(self, small_registry):
        # b.mj, c.mj and e.mj slice through c.A's bodies or hierarchy.
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        touched = [(s, t + "// touched\n" if s == "a.mj" else t) for s, t in texts]
        stats = pipeline.sync(touched)
        assert stats.files_rechecked == ("b.mj", "c.mj", "e.mj")
        assert_matches_fresh(small_registry, pipeline, touched)

    def test_a_file_resolved_again_is_mined_again(self, small_registry):
        # c.mj extends A by simple name: removing a.mj rebinds it to d.A.
        # c.mj's text is the same, but its bodies resolve again, so its
        # slices must run again too.
        texts = _edit_texts(("a.mj", 0), ("c.mj", 0), ("d.mj", 0))
        pipeline = CorpusPipeline.build(small_registry, texts)
        rest = [(s, t) for s, t in texts if s != "a.mj"]
        stats = pipeline.sync(rest)
        assert stats.files_reresolved == ("c.mj",)
        assert stats.files_remined == ("c.mj",)
        assert_matches_fresh(small_registry, pipeline, rest)

    def test_comment_touch_re_resolves_one_file(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        touched = [(s, t + "// touched\n" if s == "a.mj" else t) for s, t in texts]
        assert self._sync(small_registry, pipeline, touched) == {"a.mj"}

    def test_body_only_edit_keeps_callers(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        a_text = dict(texts)["a.mj"]
        edited = a_text.replace("return new Panel();", "return null;")
        assert edited != a_text
        texts = [(s, edited if s == "a.mj" else t) for s, t in texts]
        assert self._sync(small_registry, pipeline, texts) == {"a.mj"}

    def test_shadowing_class_re_resolves_the_shadowed_file(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        # c.Widget shadows demo.ui.Widget, which u.mj's body named by
        # simple name; no other file probed that name.
        shadowed = texts + _edit_texts(("w.mj", 0))
        assert self._sync(small_registry, pipeline, shadowed) == {"w.mj", "u.mj"}
        # A shadow without getName() breaks u.mj (quarantined files are
        # not reported as re-resolved).
        broken = texts + _edit_texts(("w.mj", 1))
        assert self._sync(small_registry, pipeline, broken) == {"w.mj"}
        assert "u.mj" not in pipeline.program.diagnostics.loaded
        assert self._sync(small_registry, pipeline, texts) == {"u.mj"}

    def test_shadowing_java_lang_re_resolves_the_shadowed_file(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        # c.String shadows java.lang.String in u.mj's body: the package
        # probe that missed now hits, and u.mj then fails to check.
        self._sync(small_registry, pipeline, texts + _edit_texts(("w.mj", 2)))
        faults = pipeline.program.diagnostics.faults
        assert [(f.source, f.phase) for f in faults] == [("u.mj", "check")]
        assert self._sync(small_registry, pipeline, texts) == {"u.mj"}

    def test_ambiguous_simple_name_re_resolves_its_users(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        # d.A makes e.mj's simple name A ambiguous; the culprit search
        # then quarantines whichever file lets the rest resolve.
        self._sync(small_registry, pipeline, texts + _edit_texts(("d.mj", 0)))
        assert pipeline.program.diagnostics.faults
        assert self._sync(small_registry, pipeline, texts) >= {"e.mj"}

    def test_overload_of_called_method_re_resolves_callers(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert _take_overloads(pipeline) == [["demo.ui.Widget"]]
        overloaded = [(s, VERSIONS["a.mj"][1] if s == "a.mj" else t) for s, t in texts]
        # b.mj calls take(); c.mj and e.mj read A's declaration too.
        assert self._sync(small_registry, pipeline, overloaded) == {
            "a.mj", "b.mj", "c.mj", "e.mj",
        }
        assert _take_overloads(pipeline) == [["demo.ui.Item"]]
        assert "b.mj" in self._sync(small_registry, pipeline, texts)
        assert _take_overloads(pipeline) == [["demo.ui.Widget"]]

    def test_supertype_edit_re_resolves_subtype_users(self, small_registry):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        # C stops extending A: b.mj passes a C where an A is expected.
        unrelated = [(s, VERSIONS["c.mj"][2] if s == "c.mj" else t) for s, t in texts]
        self._sync(small_registry, pipeline, unrelated)
        assert pipeline.program.diagnostics.quarantined_sources() == ["b.mj"]
        assert "b.mj" in self._sync(small_registry, pipeline, texts)
        assert "b.mj" in pipeline.program.diagnostics.loaded

    def test_an_override_moves_the_targets_of_an_unresolved_caller(self, small_registry):
        # C starts overriding A.p(): e.mj's body reads A only, so it is
        # not resolved again, but its call a.p() may now reach C.p().
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        override = [(s, VERSIONS["c.mj"][3] if s == "c.mj" else t) for s, t in texts]
        assert "e.mj" not in self._sync(small_registry, pipeline, override)
        [site] = [
            site
            for sites in pipeline.call_graph.calls_in.values()
            for site in sites
            if site.caller.name == "first" and site.call.name == "p"
        ]
        assert [str(t.owner) for t in site.targets] == ["c.A", "c.C"]
        self._sync(small_registry, pipeline, texts)

    def test_quarantined_static_call_stays_quarantined(self, small_registry):
        # The failed attempt folded Panel into a type name on the cached
        # AST; resolving that AST again must still reject the call.
        texts = _edit_texts(*self.BASE, ("s.mj", 0))
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert pipeline.program.diagnostics.quarantined_sources() == ["s.mj"]
        touched = [(s, t + "// touched\n" if s == "a.mj" else t) for s, t in texts]
        self._sync(small_registry, pipeline, touched)
        assert pipeline.program.diagnostics.quarantined_sources() == ["s.mj"]

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("broken", [0, 1])
    def test_broken_file_added_fixed_and_removed(self, small_registry, position, broken):
        texts = _edit_texts(*self.BASE)
        pipeline = CorpusPipeline.build(small_registry, texts)
        bad = texts[:position] + _edit_texts(("x.mj", broken)) + texts[position:]
        assert self._sync(small_registry, pipeline, bad) <= {"x.mj"}
        assert pipeline.program.diagnostics.quarantined_sources() == ["x.mj"]
        fixed = texts[:position] + _edit_texts(("x.mj", 2)) + texts[position:]
        assert self._sync(small_registry, pipeline, fixed) == {"x.mj"}
        assert self._sync(small_registry, pipeline, texts) == set()


#: Q's members name Thing and Gadget by simple name from other packages.
DECLARER = (
    "q.mj",
    "package q;\npublic class Q {\n  public Thing a;\n  public Gadget b;\n"
    "  public Object get(Thing t) { return t; }\n}\n",
)
THING = ("t.mj", "package t;\npublic class Thing {\n}\n")
GADGET = ("g.mj", "package g;\npublic class Gadget {\n}\n")
#: A second Gadget: Q's simple name turns ambiguous, nothing else moves.
OTHER_GADGET = ("o.mj", "package o;\npublic class Gadget {\n}\n")
#: A Thing in Q's own package rebinds Q's first field before the second fails.
LOCAL_THING = ("l.mj", "package q;\npublic class Thing {\n}\n")


@pytest.mark.usefixtures("narrowing")
class TestDeclarationRecords:
    """A unit is declared again only when a name its declarations probed
    binds differently; every sync still equals a fresh load."""

    @pytest.fixture
    def declared(self, monkeypatch):
        from repro.minijava.resolver import Resolver

        names = []
        original = Resolver._declare_members

        def counting(self, env, cls):
            names.append(cls.name)
            return original(self, env, cls)

        monkeypatch.setattr(Resolver, "_declare_members", counting)
        return names

    def _sync(self, registry, pipeline, texts, declared):
        declared.clear()
        pipeline.sync(texts)
        made = list(declared)
        assert_matches_fresh(registry, pipeline, texts)
        return made

    def test_comment_touch_declares_one_file(self, small_registry, declared):
        texts = [DECLARER] + _edit_texts(*TestIncrementalResolution.BASE) + [THING, GADGET]
        pipeline = CorpusPipeline.build(small_registry, texts)
        touched = [(s, t + "// touched\n" if s == "c.mj" else t) for s, t in texts]
        assert self._sync(small_registry, pipeline, touched, declared) == ["C"]

    def test_records_follow_the_names_they_probed(self, small_registry, declared):
        texts = [DECLARER] + _edit_texts(*TestIncrementalResolution.BASE) + [THING, GADGET]
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert pipeline.program.diagnostics.faults == []
        # Only a simple-name search changed: Q must fail declaring again.
        self._sync(small_registry, pipeline, texts + [OTHER_GADGET], declared)
        assert pipeline.program.diagnostics.quarantined_sources() == ["q.mj"]
        assert self._sync(small_registry, pipeline, texts, declared) == ["Q"]
        assert pipeline.program.diagnostics.faults == []
        # Q's failed declaration rewrote its first field's type; its old
        # record must not outlive that.
        self._sync(small_registry, pipeline, texts + [LOCAL_THING, OTHER_GADGET], declared)
        assert pipeline.program.diagnostics.quarantined_sources() == ["q.mj"]
        assert self._sync(small_registry, pipeline, texts, declared) == ["Q"]


#: Declares ``Nowhere``, the type x.mj (v0) names, from another package.
NOWHERE = ("n.mj", "package n;\npublic class Nowhere {\n}\n")
#: Extends demo.ui.Widget by simple name, from a package of its own.
WIDGET_USER = ("g.mj", "package g;\npublic class G extends Widget {\n}\n")
#: Broken like x.mj (v0), and declares a second ``Widget``.
BROKEN_WIDGET = (
    "k.mj",
    "package k;\npublic class Widget {\n  public void use(Nowhere gone) { }\n}\n",
)


@pytest.mark.usefixtures("narrowing")
class TestQuarantineMemo:
    """A file quarantined for lookups that found nothing stays out of the
    joint attempt while they still find nothing; every sync still equals
    a fresh load."""

    BASE = TestIncrementalResolution.BASE

    @pytest.fixture
    def attempts(self, monkeypatch):
        import repro.corpus.loader as loader

        calls = []
        resolve = loader.resolve_program

        def counting(registry, units, cache=None):
            calls.append([u.source for u in units])
            return resolve(registry, units, cache=cache)

        monkeypatch.setattr(loader, "resolve_program", counting)
        return calls

    def _sync(self, registry, pipeline, texts, attempts):
        """Sync, check against a fresh load, return the sync's attempts."""
        attempts.clear()
        pipeline.sync(texts)
        made = list(attempts)
        assert_matches_fresh(registry, pipeline, texts)
        attempts[:] = made
        return len(made)

    def test_touching_a_healthy_file_is_one_attempt(self, small_registry, attempts):
        texts = _edit_texts(*self.BASE, ("x.mj", 0))
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert pipeline.program.diagnostics.quarantined_sources() == ["x.mj"]
        touched = [(s, t + "// touched\n" if s == "a.mj" else t) for s, t in texts]
        assert self._sync(small_registry, pipeline, touched, attempts) == 1
        assert attempts == [[s for s, _ in texts if s != "x.mj"]]
        assert pipeline.program.diagnostics.quarantined_sources() == ["x.mj"]

    def test_declaring_the_missing_type_un_quarantines(self, small_registry, attempts):
        texts = _edit_texts(*self.BASE, ("x.mj", 0))
        pipeline = CorpusPipeline.build(small_registry, texts)
        self._sync(small_registry, pipeline, texts + [NOWHERE], attempts)
        assert pipeline.program.diagnostics.faults == []
        assert "x.mj" in pipeline.program.diagnostics.loaded

    def test_fixing_the_file_un_quarantines(self, small_registry, attempts):
        texts = _edit_texts(*self.BASE, ("x.mj", 0))
        pipeline = CorpusPipeline.build(small_registry, texts)
        fixed = _edit_texts(*self.BASE, ("x.mj", 2))
        assert self._sync(small_registry, pipeline, fixed, attempts) == 1
        assert pipeline.program.diagnostics.faults == []

    @pytest.mark.parametrize("shadow", [("d.mj", 0), ("w.mj", 1)])
    def test_a_shadowing_edit_falls_back_to_the_search(self, small_registry, attempts, shadow):
        # d.A makes e.mj's ``A`` ambiguous; a c.Widget without getName()
        # breaks u.mj. Either way the rest no longer resolves.
        texts = _edit_texts(*self.BASE, ("x.mj", 0))
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert self._sync(small_registry, pipeline, texts + _edit_texts(shadow), attempts) > 2
        assert len(pipeline.program.diagnostics.quarantined_sources()) == 2
        # The new quarantine is remembered only where it is all misses.
        assert self._sync(small_registry, pipeline, texts, attempts) >= 1

    def test_a_name_the_held_file_declares_is_probed_elsewhere(self, small_registry, attempts):
        # k.mj is held; g.mj then names Widget, which k.mj declares too. A
        # joint attempt fails in g.mj first, so the culprit search records
        # the ambiguity against k.mj, not k.mj's remembered error.
        texts = _edit_texts(*self.BASE) + [BROKEN_WIDGET]
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert pipeline.program.diagnostics.faults[0].error == "unknown type 'Nowhere'"
        self._sync(small_registry, pipeline, texts + [WIDGET_USER], attempts)
        [fault] = pipeline.program.diagnostics.faults
        assert fault.source == "k.mj" and fault.error.startswith("ambiguous type 'Widget'")

    def test_held_files_report_in_the_searchs_order(self, small_registry, attempts):
        # x.mj fails declaring, a second file in a body: both are held,
        # and the search would raise x.mj's error first wherever it sits.
        body = ("y.mj", "package y;\npublic class Y {\n  public int f() { return gone(); }\n}\n")
        texts = [body] + _edit_texts(*self.BASE, ("x.mj", 0))
        pipeline = CorpusPipeline.build(small_registry, texts)
        assert pipeline.program.diagnostics.quarantined_sources() == ["x.mj", "y.mj"]
        touched = [(s, t + "// touched\n" if s == "a.mj" else t) for s, t in texts]
        assert self._sync(small_registry, pipeline, touched, attempts) == 1
        assert pipeline.program.diagnostics.quarantined_sources() == ["x.mj", "y.mj"]
