"""What a restart builds: the served graph once, laid out the same in
every process, audited node by node, with no collector pass over it
(nor over a fresh build or a registry load)."""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Prospector
from repro.apispec import load_api_text
from repro.corpus import load_corpus_texts
from repro.data import corpus_texts, standard_registry
from repro.graph import SignatureGraph
from repro.minijava import MjResolveError
from repro.pipeline import CorpusPipeline
from repro.store import StoreRecoveryError, audit_graph

from .audit_oracle import audit_graph_per_edge
from .conftest import SMALL_API


class TestOneGraphBuild:
    def test_from_snapshot_adds_each_edge_once(
        self, tmp_path, standard_prospector, monkeypatch
    ):
        snap = tmp_path / "g.psnap"
        standard_prospector.save_snapshot(snap)
        added = []
        original = SignatureGraph.add_edge

        def counting(self, edge):
            added.append(edge)
            return original(self, edge)

        monkeypatch.setattr(SignatureGraph, "add_edge", counting)
        loaded = Prospector.from_snapshot(snap)
        assert loaded.store_diagnostics.ok and loaded.pipeline is not None
        assert len(added) == loaded.graph.edge_count()
        assert loaded.graph.edge_count() == standard_prospector.graph.edge_count()


#: Builds the bundled graph and prints a digest of its node order and of
#: every node's out-list and in-list. The ballast, allocated first, moves
#: every later object to another address: types hash by identity, so a
#: layout read off a set of types would move with it.
ADJACENCY_DIGEST = """
import hashlib, sys
ballast = [object() for _ in range(int(sys.argv[1]))]
from repro import Prospector
from repro.data import standard_setup
from repro.graph import node_label

graph = Prospector(*standard_setup()).graph
digest = hashlib.sha256()
for node in graph.node_order():
    digest.update(b"\\n" + node_label(node).encode())
    for edge in graph.out_edges(node):
        digest.update(b"\\n>" + str(edge).encode())
    for edge in graph.in_edges(node):
        digest.update(b"\\n<" + str(edge).encode())
print(graph.node_count(), graph.edge_count(), digest.hexdigest())
"""


class TestSameAdjacency:
    def test_two_processes_lay_out_the_same_graph(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed, ballast in (("1", "0"), ("2", "1000"), ("3", "20000")):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", ADJACENCY_DIGEST, ballast],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            outputs.append(done.stdout.strip())
        assert outputs[0] == outputs[1] == outputs[2]


class TestAuditAgainstOracle:
    """The per-node audit names the same offending edges, in the same
    order, as the per-edge walk it replaced (tests/audit_oracle.py)."""

    def test_clean_graph(self, standard_prospector):
        graph = standard_prospector.graph
        assert audit_graph(standard_prospector.registry, graph) == []
        assert audit_graph_per_edge(standard_prospector.registry, graph) == []

    def test_undeclared_endpoints(self, standard_prospector):
        registry = load_api_text(SMALL_API)
        graph = standard_prospector.graph
        issues = audit_graph(registry, graph)
        assert issues
        assert issues == audit_graph_per_edge(registry, graph)

    def test_undeclared_typestate_bases(self, small_prospector):
        # Keeps demo.io only: every demo.ui node, the typestate nodes
        # mined from the corpus among them, loses its declaration.
        registry = load_api_text(SMALL_API[: SMALL_API.index("package demo.ui;")])
        graph = small_prospector.graph
        assert graph.typestate_nodes()
        issues = audit_graph(registry, graph)
        assert any("--> ISelection-1" in issue.where for issue in issues)
        assert issues == audit_graph_per_edge(registry, graph)


@pytest.fixture(scope="module")
def bundled_snapshot(tmp_path_factory, standard_prospector):
    snap = tmp_path_factory.mktemp("restart") / "g.psnap"
    standard_prospector.save_snapshot(snap)
    return snap


@pytest.fixture
def collections():
    """The generation of every collector pass, as it starts."""
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(record)
    yield passes
    gc.callbacks.remove(record)


@pytest.fixture
def collector_off():
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def frozen_heap():
    """A caller that froze the heap it had, as a pre-fork server does."""
    gc.freeze()
    yield
    gc.unfreeze()


def _fail_to_rebuild():
    raise OSError("corpus unreadable")


def _exhaust_the_ladder(tmp_path):
    with pytest.raises(StoreRecoveryError):
        Prospector.from_snapshot(
            tmp_path / "missing.psnap", rebuild=_fail_to_rebuild, sleep=lambda s: None
        )


class TestNoCollectorPasses:
    """A load makes no cyclic garbage, so ``from_snapshot`` pauses the
    collector and its exit moves the new objects to the oldest
    generation without a pass. Pass counts are deterministic; the time
    they save is not."""

    def test_no_pass(self, bundled_snapshot, collections):
        assert gc.isenabled() and gc.get_freeze_count() == 0
        collections.clear()
        loaded = Prospector.from_snapshot(bundled_snapshot)
        assert collections == []
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert loaded.store_diagnostics.ok and loaded.pipeline is not None

    def test_objects_a_caller_froze_stay_frozen(
        self, bundled_snapshot, collections, frozen_heap
    ):
        collections.clear()
        Prospector.from_snapshot(bundled_snapshot)
        assert collections == [1]
        # unfreeze would have emptied the permanent generation.
        assert gc.isenabled() and gc.get_freeze_count() > 0

    def test_a_collector_turned_off_stays_off(
        self, bundled_snapshot, collections, collector_off
    ):
        loaded = Prospector.from_snapshot(bundled_snapshot)
        assert collections == []
        assert not gc.isenabled()
        assert loaded.store_diagnostics.ok

    def test_a_failed_ladder_turns_the_collector_back_on(self, tmp_path, collections):
        collections.clear()
        _exhaust_the_ladder(tmp_path)
        assert gc.isenabled()
        assert collections == []

    def test_a_failed_ladder_leaves_the_collector_off(
        self, tmp_path, collections, collector_off
    ):
        _exhaust_the_ladder(tmp_path)
        assert not gc.isenabled()
        assert collections == []

    def test_a_clean_restart_leaves_no_cyclic_garbage(self, bundled_snapshot):
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            loaded = Prospector.from_snapshot(bundled_snapshot)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert loaded.store_diagnostics.ok and loaded.pipeline is not None
        assert garbage == 0


#: A file no strict build can resolve.
UNRESOLVABLE = ("bad.mj", "package x;\npublic class Bad {\n  public void use(Nowhere gone) { }\n}\n")


def _prospector_build(registry, texts):
    """``Prospector(registry, corpus)`` over a corpus loaded beforehand;
    an unresolvable file joins the program's texts after its load."""
    corpus = load_corpus_texts(registry, [t for t in texts if t is not UNRESOLVABLE])
    corpus.texts.extend(t for t in texts if t is UNRESOLVABLE)
    return lambda: Prospector(registry, corpus)


#: Each fresh build, as a factory of the call to measure.
FRESH_BUILDS = {
    "pipeline-build": lambda registry, texts: lambda: CorpusPipeline.build(
        registry, texts, lenient=False
    ),
    "prospector": _prospector_build,
    "load-corpus-texts": lambda registry, texts: lambda: load_corpus_texts(registry, texts),
}


class TestNoCollectorPassesInAFreshBuild:
    """A fresh build of the bundled corpus makes no cyclic garbage
    either, and runs under the same pause as a restart."""

    @pytest.fixture(params=sorted(FRESH_BUILDS))
    def build(self, request, standard_registry_and_corpus):
        registry = standard_registry_and_corpus[0]
        factory = FRESH_BUILDS[request.param]
        return lambda texts=corpus_texts(): factory(registry, list(texts))

    def test_no_pass(self, build, collections):
        run = build()
        assert gc.isenabled() and gc.get_freeze_count() == 0
        collections.clear()
        run()
        assert collections == []
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_no_cyclic_garbage(self, build):
        run = build()
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            built = run()
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert built is not None and garbage == 0

    def test_objects_a_caller_froze_stay_frozen(self, build, collections, frozen_heap):
        run = build()
        collections.clear()
        run()
        assert collections == [1]
        assert gc.isenabled() and gc.get_freeze_count() > 0

    def test_a_collector_turned_off_stays_off(self, build, collections, collector_off):
        build()()
        assert collections == []
        assert not gc.isenabled()

    def test_a_failed_strict_build_turns_the_collector_back_on(self, build, collections):
        run = build([*corpus_texts(), UNRESOLVABLE])
        collections.clear()
        with pytest.raises(MjResolveError, match="unknown type 'Nowhere'"):
            run()
        assert gc.isenabled()
        assert collections == []


class TestNoCollectorPassesInARegistryLoad:
    def test_standard_registry_makes_no_pass(self, collections):
        # Start from an empty youngest generation, so a pass can only
        # come from the call's own allocations.
        gc.collect()
        assert gc.isenabled() and gc.get_freeze_count() == 0
        collections.clear()
        registry = standard_registry()
        assert collections == []
        assert len(registry) > 0
        assert gc.isenabled() and gc.get_freeze_count() == 0
