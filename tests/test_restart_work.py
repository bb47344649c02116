"""What a restart builds: the served graph once, laid out the same in
every process, audited node by node."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Prospector
from repro.apispec import load_api_text
from repro.graph import SignatureGraph
from repro.store import audit_graph

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
