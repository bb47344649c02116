"""What an update redoes on the scale-edit corpus: a comment-only touch
declares only the touched file's classes and rebuilds only the caller
lists of the targets its call sites name."""

import importlib
import sys
from pathlib import Path

import pytest

from repro.apispec import SyntheticApiConfig, generate_synthetic_api
from repro.minijava.callgraph import build_call_graph
from repro.minijava.resolver import Resolver
from repro.pipeline import CorpusPipeline

from .resolution_oracle import call_graph_values

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _corpusgen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("corpusgen")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def scale_api():
    return generate_synthetic_api(SyntheticApiConfig())


@pytest.fixture
def touched(scale_api, monkeypatch):
    """A seed-7 scale-edit pipeline, then one comment-only touch of a file
    in the middle of it. Returns the pipeline, the touched source, the
    classes declared by the touch, and the callers map before it."""
    texts = _corpusgen().generate_corpus(scale_api, files=100, seed=7).texts()
    pipeline = CorpusPipeline.build(scale_api, texts)
    callers_before = dict(pipeline.call_graph.callers_of)
    declared = []
    original = Resolver._declare_members

    def counting(self, env, cls):
        declared.append(cls.qualified_name)
        return original(self, env, cls)

    monkeypatch.setattr(Resolver, "_declare_members", counting)
    source, text = texts[len(texts) // 2]
    stats = pipeline.update(upserts=[(source, text + "// touched\n")])
    assert stats.files_reresolved == (source,)
    return pipeline, source, declared, callers_before


class TestCommentTouch:
    def test_declares_only_the_touched_files_classes(self, touched):
        pipeline, source, declared, _ = touched
        [unit] = [u for u in pipeline.program.units if u.source == source]
        assert declared == [cls.qualified_name for cls in unit.classes]

    def test_rebuilds_only_the_caller_lists_the_touched_file_names(self, touched):
        pipeline, source, _, before = touched
        graph = pipeline.call_graph
        [unit] = [u for u in pipeline.program.units if u.source == source]
        named = {
            target
            for _, _, sites in graph.units[id(unit)].bodies
            for site in sites
            for target in site.targets
        }
        assert named
        assert list(graph.callers_of) == list(before)
        for target, sites in graph.callers_of.items():
            assert (sites is before[target]) == (target not in named)
        fresh = build_call_graph(pipeline.program.registry, pipeline.program.units)
        pipeline.call_graph = fresh
        rebuilt = call_graph_values(pipeline)
        pipeline.call_graph = graph
        assert call_graph_values(pipeline) == rebuilt


class TestSeededEdits:
    def test_caller_lists_match_a_fresh_build(self, scale_api):
        # Added and dropped idioms, added and removed files: the kept
        # caller lists, and the key order, equal a fresh build's.
        corpusgen = _corpusgen()
        corpus = corpusgen.generate_corpus(scale_api, files=30, seed=7)
        pipeline = CorpusPipeline.build(scale_api, corpus.texts())
        for _ in range(12):
            edit = corpusgen.next_edit(corpus)
            pipeline.update(edit.upserts, edit.removes)
            graph = pipeline.call_graph
            pipeline.call_graph = build_call_graph(
                pipeline.program.registry, pipeline.program.units
            )
            want = call_graph_values(pipeline)
            pipeline.call_graph = graph
            assert call_graph_values(pipeline) == want
