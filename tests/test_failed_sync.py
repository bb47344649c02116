"""A sync that raises leaves no trace.

The resolver annotates cached ASTs in place and the generalize and graft
stages edit the trie and the live graph in place, all before a sync
commits. After a sync raises at any stage, in either load mode, the next
sync of the committed texts must not be a no-op: it and the sync after
it must equal a fresh build. A strict sync is the lenient one plus a
verdict: it raises the first quarantined file's own error.
"""

import pytest

from repro.graph import JungloidGraph
from repro.minijava import MjResolveError, MjTypeError
from repro.mining import IncrementalGeneralizer
from repro.pipeline import CorpusPipeline
from repro.pipeline import pipeline as pipeline_module

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
    "mine": (CorpusPipeline, "_mine_unit"),
    "analyze": (pipeline_module, "build_verdict_index"),
    "generalize": (IncrementalGeneralizer, "generalize"),
    "graft": (JungloidGraph, "apply_mined_delta"),
}


def _raise_once_after(monkeypatch, owner, name):
    """Make ``owner.name`` raise :class:`Injected` once, after it ran."""
    original = getattr(owner, name)
    fired = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if not fired:
            fired.append(name)
            raise Injected(name)
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return fired


@pytest.mark.parametrize("lenient", [True, False], ids=["lenient", "strict"])
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_a_raise_after_any_stage_leaves_no_trace(small_registry, monkeypatch, stage, lenient):
    pipeline = CorpusPipeline.build(small_registry, BASE, lenient=lenient)
    fired = _raise_once_after(monkeypatch, *STAGES[stage])
    with pytest.raises(Injected):
        pipeline.sync(EDIT)
    assert fired
    resolved = pipeline._resolution_cache.resolved
    annotated = {u.source for u in pipeline.program.units if id(u) in resolved}
    assert "u.mj" in annotated
    stats = pipeline.sync(BASE)
    assert not stats.noop and annotated <= set(stats.files_reresolved)
    assert_matches_fresh(small_registry, pipeline, BASE)
    pipeline.sync(NEW)
    assert_matches_fresh(small_registry, pipeline, NEW)


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
