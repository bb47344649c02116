"""What an update redoes on the scale-edit corpus: a comment-only touch
declares only the touched file's classes and rebuilds only the caller
lists of the targets its call sites name, and an edit checks only the
cached records that recorded a name, type or key it changed."""

import importlib
import sys
from pathlib import Path

import pytest

from repro.analysis import castsafety
from repro.apispec import SyntheticApiConfig, generate_synthetic_api
from repro.minijava import callgraph
from repro.minijava.callgraph import build_call_graph
from repro.minijava.resolver import Resolver
from repro.pipeline import CorpusPipeline
from repro.typesystem import TypeRegistry

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
        assert graph.callers_of.keys() == before.keys()
        for target, sites in graph.callers_of.items():
            assert (sites is before[target]) == (target not in named)
        fresh = build_call_graph(pipeline.program.registry, pipeline.program.units)
        pipeline.call_graph = fresh
        rebuilt = call_graph_values(pipeline)
        pipeline.call_graph = graph
        assert call_graph_values(pipeline) == rebuilt


class TestSeededEdits:
    def test_caller_lists_match_a_fresh_build(self, scale_api):
        # Added and dropped idioms, added and removed files: the maps,
        # with each caller list in corpus order, equal a fresh build's.
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


@pytest.fixture(scope="module")
def scale_corpus(scale_api):
    """The seed-7 scale-edit corpus and a pipeline built over it."""
    texts = _corpusgen().generate_corpus(scale_api, files=100, seed=7).texts()
    return texts, CorpusPipeline.build(scale_api, texts)


@pytest.fixture
def checks(monkeypatch):
    """Every run of a validity check or of ``classify_pair``: the traces
    ``_binds_same`` checked, the sources of the entries ``_still_valid``
    and the records ``_record_valid`` checked, the pairs classified."""
    runs = {"binds": [], "still": [], "record": [], "classify": []}
    binds, still = Resolver._binds_same, Resolver._still_valid
    record_valid, classify = CorpusPipeline._record_valid, castsafety.classify_pair

    def binds_same(self, trace):
        runs["binds"].append(trace)
        return binds(self, trace)

    def still_valid(self, entry):
        runs["still"].append(entry.unit.source)
        return still(self, entry)

    def valid(record, fp, deps):
        runs["record"].append(record.source)
        return record_valid(record, fp, deps)

    def classify_pair(observations):
        runs["classify"].append(observations[0].pair)
        return classify(observations)

    monkeypatch.setattr(Resolver, "_binds_same", binds_same)
    monkeypatch.setattr(Resolver, "_still_valid", still_valid)
    monkeypatch.setattr(CorpusPipeline, "_record_valid", staticmethod(valid))
    monkeypatch.setattr(castsafety, "classify_pair", classify_pair)
    return runs


def _dependents(before, after, records, edited):
    """The sources other than ``edited`` whose mine records recorded a
    key whose value differs between two fresh builds' dependency maps."""
    out = set()
    for source, record in records.items():
        if source == edited:
            continue
        for table, keys in (
            ("decl", record.decl_deps), ("site", record.site_deps), ("types", record.type_deps)
        ):
            old, new = getattr(before, table), getattr(after, table)
            if any(old.get(k, ()) != new.get(k, ()) for k in keys):
                out.add(source)
    return out


def _pairs(pipeline, source):
    return {obs.pair for obs in pipeline._analysis_obs.get(source, ())}


class TestChecksFollowTheEdit:
    """Only dependents run a validity check or a classification: the
    records that recorded a changed name, type or key, and the cast
    pairs whose group gained or lost an observation."""

    def test_comment_touch_checks_only_its_dependents(self, scale_api, scale_corpus, checks):
        texts, built = scale_corpus
        source, text = texts[len(texts) // 2]
        pipeline = CorpusPipeline.build(scale_api, texts)
        records, before, pairs = pipeline.records, pipeline._deps, _pairs(pipeline, source)
        edited = [(s, t + "// touched\n" if s == source else t) for s, t in texts]
        after = CorpusPipeline.build(scale_api, edited)._deps
        for runs in checks.values():
            runs.clear()
        stats = pipeline.update(upserts=[(source, text + "// touched\n")])
        want = _dependents(before, after, records, source)
        assert checks["binds"] == [] and checks["still"] == []
        assert sorted(checks["record"]) == sorted(want)
        assert set(stats.files_rechecked) == want
        assert sorted(checks["classify"]) == sorted(pairs | _pairs(pipeline, source))
        assert stats.files_remined == (source,)

    def test_removing_a_file_nothing_names_checks_nothing(
        self, scale_api, scale_corpus, checks
    ):
        texts, built = scale_corpus
        for source, text in texts:
            names = [cls.name for u in built.program.units if u.source == source
                     for cls in u.classes]
            rest = [(s, t) for s, t in texts if s != source]
            if names and not any(n in t for _, t in rest for n in names):
                after = CorpusPipeline.build(scale_api, rest)
                if not _dependents(built._deps, after._deps, built.records, source):
                    break
        else:
            pytest.fail("every file is named by another")
        pipeline = CorpusPipeline.build(scale_api, texts)
        pairs = _pairs(pipeline, source)
        for runs in checks.values():
            runs.clear()
        stats = pipeline.update(removes=[source])
        assert checks["binds"] == [] and checks["still"] == [] and checks["record"] == []
        assert stats.files_rechecked == ()
        assert sorted(checks["classify"]) == sorted(
            pair for pair in pairs if pair in pipeline.verdicts.groups
        )


class TestAddIdiom:
    def test_callers_of_never_falls_back_and_no_api_class_is_indexed(
        self, scale_api, monkeypatch
    ):
        corpusgen = _corpusgen()
        corpus = corpusgen.generate_corpus(scale_api, files=30, seed=7)
        pipeline = CorpusPipeline.build(scale_api, corpus.texts())
        patches, indexed = [], []
        patched = callgraph._patched_callers
        index = TypeRegistry._index_declarations

        def patched_callers(graph, previous, changed, gone):
            patches.append(graph)
            return patched(graph, previous, changed, gone)

        def index_declarations(self, names):
            names = list(names)
            indexed.extend(names)
            return index(self, names)

        monkeypatch.setattr(callgraph, "_patched_callers", patched_callers)
        monkeypatch.setattr(TypeRegistry, "_index_declarations", index_declarations)
        kinds = []
        for _ in range(12):
            edit = corpusgen.next_edit(corpus)
            patches.clear()
            indexed.clear()
            pipeline.update(edit.upserts, edit.removes)
            kinds.append(edit.kind)
            if edit.kind == "add_idiom":
                assert len(patches) == 1  # patched, not built from scratch
                assert indexed and not any(scale_api.get(n.dotted) for n in indexed)
            graph = pipeline.call_graph
            pipeline.call_graph = build_call_graph(
                pipeline.program.registry, pipeline.program.units
            )
            want = call_graph_values(pipeline)
            pipeline.call_graph = graph
            assert call_graph_values(pipeline) == want
        assert "add_idiom" in kinds
