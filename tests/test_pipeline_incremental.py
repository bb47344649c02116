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
from .resolution_oracle import VERSIONS, assert_matches_fresh

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
        data = pipeline.last_stats.to_dict()
        assert data["files_reanalyzed"] == ["handler.mj"]
        assert data["casts_reanalyzed"] > 0
        assert "analyze_ms" in data["timings"]


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
        assert pipeline.last_stats.to_dict()["files_reresolved"] == [s for s, _ in texts]
        assert_matches_fresh(small_registry, pipeline, texts)

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
