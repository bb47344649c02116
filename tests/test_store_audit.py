"""Tests for the post-load integrity audit."""

import pytest

from repro.apispec import load_api_text
from repro.graph import JungloidGraph
from repro.jungloids import Jungloid, downcast, instance_call, widening
from repro.store import (
    KIND_BAD_DOWNCAST,
    KIND_BAD_WIDENING,
    KIND_COUNT_MISMATCH,
    KIND_UNKNOWN_MEMBER,
    SnapshotIntegrityError,
    SnapshotManifest,
    SnapshotStore,
    audit_bundle,
    audit_counts,
    audit_mined,
)
from repro.typesystem import named

#: Two registries sharing s.Base/s.Leaf, but only RICH has the method —
#: loading a snapshot mined against RICH into POOR is the drift scenario
#: the audit exists to catch.
RICH_API = """
package java.lang;
public class String {}
package s;
public class Base { public String label(); }
public class Leaf extends Base {}
public class Stranger {}
"""

POOR_API = """
package java.lang;
public class String {}
package s;
public class Base {}
public class Leaf extends Base {}
public class Stranger {}
"""


@pytest.fixture()
def rich():
    return load_api_text(RICH_API)


@pytest.fixture()
def poor():
    return load_api_text(POOR_API)


class TestAuditMined:
    def test_clean_bundle_has_no_issues(self, rich):
        m = rich.find_method(rich.lookup("s.Base"), "label")[0]
        mined = [Jungloid.of(widening(named("s.Leaf"), named("s.Base")),
                             instance_call(m)[0])]
        assert audit_mined(rich, mined) == []

    def test_vanished_method_is_flagged(self, rich, poor):
        m = rich.find_method(rich.lookup("s.Base"), "label")[0]
        mined = [Jungloid.of(instance_call(m)[0])]
        issues = audit_mined(poor, mined)
        assert [i.kind for i in issues] == [KIND_UNKNOWN_MEMBER]
        assert "label" in issues[0].detail

    def test_bad_widening_is_flagged(self, rich):
        # Base does not widen to Stranger: unrelated hierarchies.
        mined = [Jungloid.of(widening(named("s.Base"), named("s.Stranger")))]
        issues = audit_mined(rich, mined)
        assert [i.kind for i in issues] == [KIND_BAD_WIDENING]

    def test_bad_downcast_is_flagged(self, rich):
        # Casting a Base to an unrelated Stranger can never succeed.
        mined = [Jungloid.of(downcast(named("s.Base"), named("s.Stranger")))]
        issues = audit_mined(rich, mined)
        assert [i.kind for i in issues] == [KIND_BAD_DOWNCAST]

    def test_real_downcast_is_clean(self, rich):
        mined = [Jungloid.of(downcast(named("s.Base"), named("s.Leaf")))]
        assert audit_mined(rich, mined) == []

    def test_downcast_from_object_is_clean(self, rich):
        mined = [Jungloid.of(downcast(rich.object_type, named("s.Leaf")))]
        assert audit_mined(rich, mined) == []


class TestAuditCounts:
    def _manifest(self, **overrides):
        base = dict(
            payload_sha256="0" * 64,
            payload_bytes=1,
            type_count=5,
            mined_count=0,
            node_count=0,
            edge_count=0,
        )
        base.update(overrides)
        return SnapshotManifest(**base)

    def test_matching_counts_pass(self, rich):
        manifest = self._manifest(type_count=len(rich))
        assert audit_counts(rich, [], manifest) == []

    def test_type_count_mismatch(self, rich):
        manifest = self._manifest(type_count=len(rich) + 7)
        issues = audit_counts(rich, [], manifest)
        assert [i.kind for i in issues] == [KIND_COUNT_MISMATCH]
        assert issues[0].where == "type_count"

    def test_graph_counts_checked_when_graph_given(self, rich):
        graph = JungloidGraph.build(rich, [])
        from repro.graph import graph_stats

        stats = graph_stats(graph)
        good = self._manifest(
            type_count=len(rich), node_count=stats.nodes, edge_count=stats.edges
        )
        assert audit_counts(rich, [], good, graph=graph) == []
        bad = self._manifest(
            type_count=len(rich), node_count=stats.nodes + 1, edge_count=stats.edges
        )
        issues = audit_counts(rich, [], bad, graph=graph)
        assert issues and issues[0].where == "node_count"


class TestAuditOnLoad:
    def test_audited_load_rejects_drifted_manifest(self, tmp_path, small_registry):
        """A snapshot whose manifest counts were tampered (but whose
        checksum was recomputed to match) is caught by the audit."""
        import json

        path = tmp_path / "graph.psnap"
        store = SnapshotStore(path)
        store.save(small_registry)
        raw = path.read_bytes()
        head, _, payload = raw.partition(b"\n")
        header = json.loads(head)
        header["manifest"]["mined_count"] = 99  # lie; checksum still valid
        path.write_bytes(
            json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
        )
        with pytest.raises(SnapshotIntegrityError) as exc_info:
            store.load()
        assert any(i.kind == KIND_COUNT_MISMATCH for i in exc_info.value.issues)

    def test_full_bundle_audit_is_clean(self, tmp_path, small_prospector):
        registry, mined = small_prospector.registry, small_prospector.mined_jungloids
        graph = small_prospector.graph
        manifest = SnapshotStore(tmp_path / "graph.psnap").save(registry, mined, graph=graph)
        assert audit_bundle(registry, mined, manifest, graph) == []
