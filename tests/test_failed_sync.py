"""A sync that raises leaves no trace.

The resolver annotates cached ASTs in place and the generalize and graft
stages edit the trie and the live graph in place, all before a sync
commits. After a sync raises at any stage, in either load mode, the next
sync of the committed texts must not be a no-op: it and the sync after
it must equal a fresh build. A strict sync is the lenient one plus a
verdict: it raises the first quarantined file's own error.
"""

import contextlib
from unittest import mock

import pytest

from repro import Prospector
from repro.apispec import load_api_text
from repro.data import corpus_texts
from repro.graph import JungloidGraph
from repro.minijava import MjResolveError, MjTypeError
from repro.mining import IncrementalGeneralizer
from repro.pipeline import CorpusPipeline
from repro.pipeline import pipeline as pipeline_module

from .conftest import SMALL_API
from .resolution_oracle import VERSIONS, annotation_dump, assert_matches_fresh, fresh_program

BASE = [(name, VERSIONS[name][0]) for name in ("h.mj", "a.mj", "e.mj", "u.mj")]
#: ``c.Widget`` shadows the ``demo.ui.Widget`` that ``u.mj`` names, and
#: ``b.mj``'s cast adds an example to the trie and a suffix to the graph.
EDIT = BASE + [(name, VERSIONS[name][0]) for name in ("w.mj", "c.mj", "b.mj")]
NEW = BASE + [("x.mj", VERSIONS["x.mj"][2])]
ILL_TYPED = """
package k;
import demo.ui.Panel;
public class K {
  public Panel f(Object o) { Panel p = o; return p; }
}
"""


class Injected(RuntimeError):
    pass


#: Each stage, by the function that ends it in ``CorpusPipeline.sync``.
STAGES = {
    "resolve": (pipeline_module, "resolve_and_check_lenient"),
    "callgraph": (pipeline_module, "build_call_graph"),
    "mine": (pipeline_module._MineStage, "mine_unit"),
    "analyze": (pipeline_module, "build_verdict_index"),
    "generalize": (IncrementalGeneralizer, "generalize"),
    "graft": (JungloidGraph, "apply_mined_delta"),
}


@contextlib.contextmanager
def raising_once_after(owner, name):
    """Make ``owner.name`` raise :class:`Injected` once, after it ran;
    yields the list the first call appends ``name`` to."""
    original = getattr(owner, name)
    fired = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if not fired:
            fired.append(name)
            raise Injected(name)
        return result

    with mock.patch.object(owner, name, wrapper):
        yield fired


@pytest.mark.parametrize("lenient", [True, False], ids=["lenient", "strict"])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_a_raise_after_any_stage_leaves_no_trace(small_registry, stage, lenient):
    pipeline = CorpusPipeline.build(small_registry, BASE, lenient=lenient)
    with raising_once_after(*STAGES[stage]) as fired, pytest.raises(Injected):
        pipeline.sync(EDIT)
    assert fired
    resolved = pipeline._resolve.cache.resolved
    annotated = {u.source for u in pipeline.program.units if id(u) in resolved}
    assert "u.mj" in annotated
    stats = pipeline.sync(BASE)
    assert not stats.noop and annotated <= set(stats.files_reresolved)
    assert_matches_fresh(small_registry, pipeline, BASE)
    pipeline.sync(NEW)
    assert_matches_fresh(small_registry, pipeline, NEW)


def test_a_trie_that_lost_a_committed_example_fails_the_sync(small_registry):
    # The trie must hold every committed record's examples: one it lost
    # makes the next sync that drops them raise, so the sync after that
    # builds the trie afresh.
    pipeline = CorpusPipeline.build(small_registry, BASE)
    (example, *_) = pipeline._mine.records["h.mj"].examples
    pipeline._generalize.generalizer.remove(example)
    touched = [(s, t + "// touched\n" if s == "h.mj" else t) for s, t in BASE]
    with pytest.raises(KeyError, match="never inserted"):
        pipeline.sync(touched)
    assert not pipeline.sync(touched).noop
    assert_matches_fresh(small_registry, pipeline, touched)


def test_a_strict_sync_that_fails_to_resolve_leaves_no_trace(small_registry):
    # w.mj v1 declares a c.Widget without getName, which u.mj calls: the
    # failed attempt annotated u.mj against it.
    pipeline = CorpusPipeline.build(small_registry, BASE, lenient=False)
    with pytest.raises(MjResolveError, match="c.Widget.getName"):
        pipeline.sync(BASE + [("w.mj", VERSIONS["w.mj"][1])])
    assert not pipeline.sync(BASE).noop
    fresh = fresh_program(small_registry, BASE)
    assert annotation_dump(pipeline.program.units) == annotation_dump(fresh.units)
    assert_matches_fresh(small_registry, pipeline, BASE)
    pipeline.sync(NEW)
    assert_matches_fresh(small_registry, pipeline, NEW)


class TestStrictVerdict:
    """A strict sync raises what a strict load raises, and commits nothing."""

    def _both(self, registry, texts):
        lenient = CorpusPipeline.build(registry, BASE)
        lenient.sync(texts)
        strict = CorpusPipeline.build(registry, BASE, lenient=False)
        revision = strict.graph.revision
        with pytest.raises(Exception) as raised:
            strict.sync(texts)
        assert strict.texts == tuple(BASE) and strict.graph.revision == revision
        return lenient.program.diagnostics, raised.value

    def test_resolve_raises_the_joint_attempts_error(self, small_registry):
        diagnostics, error = self._both(small_registry, BASE + [("x.mj", VERSIONS["x.mj"][0])])
        assert str(error) == diagnostics.faults[0].error == "unknown type 'Nowhere'"

    def test_check_raises_over_the_first_reports_issues(self, small_registry):
        diagnostics, error = self._both(small_registry, BASE + [("k.mj", ILL_TYPED)])
        assert isinstance(error, MjTypeError)
        assert diagnostics.faults[0].phase == "check"
        assert str(error).endswith(diagnostics.faults[0].error)

    def test_parse_raises_the_parsers_error(self, small_registry):
        diagnostics, error = self._both(small_registry, BASE + [("p.mj", "class {")])
        assert diagnostics.faults[0].phase == "parse"
        assert str(error) == diagnostics.faults[0].error

    def test_the_quarantine_memo_keeps_the_typed_error(self, small_registry):
        texts = BASE + [("x.mj", VERSIONS["x.mj"][0])]
        pipeline = CorpusPipeline.build(small_registry, texts)
        searched = pipeline.program.diagnostics.faults[0].raised
        pipeline.update(upserts=[("a.mj", VERSIONS["a.mj"][1])])  # x.mj stays held
        held = pipeline.program.diagnostics.faults[0].raised
        assert type(held) is type(searched) and str(held) == str(searched)


#: ``g.mj`` passes a ``Widget``'s name into an ``Object`` parameter of the
#: API, so its one argument example depends on which ``Widget`` it names.
LOG_API = SMALL_API + """
package demo.log;
public class Log {
  public static void put(Object o);
}
"""
GETS_NAME = """
package c;
import demo.log.Log;
public class G {
  public void g() { Widget w = new Widget(); Log.put(w.getName()); }
}
"""
LOGGED = ["demo.log.Log.put(arg 0) <- λx. new demo.ui.Widget().getName() : void → java.lang.String"]


@pytest.mark.parametrize(
    "texts, suggested",
    [(BASE, []), (BASE[:3] + [("g.mj", GETS_NAME)], LOGGED)],
    ids=["u.mj", "g.mj"],
)
def test_argument_suggestions_after_a_failed_update_read_the_committed_state(texts, suggested):
    # The failed attempt annotates the file that names Widget against
    # w.mj's c.Widget, which has no getName.
    registry = load_api_text(LOG_API)
    prospector = Prospector(registry, pipeline=CorpusPipeline.build(registry, texts, lenient=False))
    with pytest.raises(MjResolveError, match="c.Widget.getName"):
        prospector.update_corpus(upserts=[("w.mj", VERSIONS["w.mj"][1])])
    assert [str(e) for e in prospector.suggest_arguments("demo.log.Log", "put")] == suggested
    assert prospector.observed_argument_types("demo.log.Log", "put") == (
        ["java.lang.String"] if suggested else []
    )
    fresh = fresh_program(registry, texts)
    assert annotation_dump(prospector.corpus.units) == annotation_dump(fresh.units)
    assert prospector.corpus.texts == list(texts)


def test_a_file_failing_on_misses_alone_is_blamed_without_trials(
    standard_registry_and_corpus, monkeypatch
):
    # Adding one unresolvable file to the strict bundled corpus: its
    # lookups all missed, so no other file's removal can help.
    import repro.corpus.loader as loader

    registry = standard_registry_and_corpus[0]
    texts = corpus_texts()
    pipeline = CorpusPipeline.build(registry, texts, lenient=False)
    calls = []
    resolve = loader.resolve_program

    def counting(registry, units, cache=None):
        calls.append(len(units))
        return resolve(registry, units, cache=cache)

    monkeypatch.setattr(loader, "resolve_program", counting)
    with pytest.raises(MjResolveError, match="unknown type 'Nowhere'"):
        pipeline.update(upserts=[("x.mj", VERSIONS["x.mj"][0])])
    assert len(calls) <= 2
    assert pipeline.texts == tuple(texts)
