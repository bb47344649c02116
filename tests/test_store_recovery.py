"""Tests for the recovery ladder, StoreDiagnostics, and fault injectors.

The acceptance property: a snapshot truncated or bit-flipped at an
arbitrary offset never crashes the engine — verification reports the
damage and a query still answers via the ladder, with the rung taken
visible in the diagnostics.
"""

import json

import pytest

from repro import Prospector, ProspectorConfig
from repro.graph import JungloidGraph
from repro.robustness import (
    FlakyFileSystem,
    corrupt_file,
    flip_byte,
    truncate_bytes,
)
from repro.store import (
    RUNG_CURRENT,
    RUNG_PREVIOUS,
    RUNG_REBUILD,
    STAGE_ANALYSIS,
    SnapshotStore,
    StoreDiagnostics,
    StoreRecoveryError,
    load_with_recovery,
    repair,
    verify_snapshot,
)


@pytest.fixture()
def saved_store(tmp_path, small_prospector):
    store = SnapshotStore(tmp_path / "graph.psnap")
    small_prospector.save_snapshot(store.path)
    return store


def _rebuild_from(prospector):
    def rebuild():
        return prospector.registry, prospector.mined_jungloids

    return rebuild


class TestLadder:
    def test_clean_load_uses_current_rung(self, saved_store):
        recovered = load_with_recovery(saved_store)
        assert recovered.rung_used == RUNG_CURRENT
        assert recovered.diagnostics.ok
        assert not recovered.diagnostics.degraded

    def test_corrupt_current_falls_to_previous(self, saved_store, small_prospector):
        small_prospector.save_snapshot(saved_store.path)  # rotate a .prev out
        corrupt_file(saved_store.path, lambda b: flip_byte(b, len(b) // 2))
        recovered = load_with_recovery(saved_store)
        assert recovered.rung_used == RUNG_PREVIOUS
        assert recovered.diagnostics.degraded
        assert recovered.diagnostics.faults_for(RUNG_CURRENT)

    def test_both_generations_bad_rebuilds(self, saved_store, small_prospector):
        small_prospector.save_snapshot(saved_store.path)
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 10))
        corrupt_file(saved_store.previous_path, lambda b: flip_byte(b, 100))
        recovered = load_with_recovery(
            saved_store, rebuild=_rebuild_from(small_prospector)
        )
        assert recovered.rung_used == RUNG_REBUILD
        assert len(recovered.mined) == len(small_prospector.mined_jungloids)
        rungs_failed = {f.rung for f in recovered.diagnostics.faults}
        assert rungs_failed == {RUNG_CURRENT, RUNG_PREVIOUS}

    def test_all_rungs_fail_raises_with_diagnostics(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 0))

        def always_fails():
            raise RuntimeError("corpus volume offline")

        with pytest.raises(StoreRecoveryError) as exc_info:
            load_with_recovery(saved_store, rebuild=always_fails,
                               max_rebuild_attempts=2, sleep=lambda s: None)
        diagnostics = exc_info.value.diagnostics
        assert diagnostics.rung_used is None
        assert diagnostics.rebuild_attempts == 2
        assert "corpus volume offline" in diagnostics.summary()

    def test_no_rebuild_callable_raises(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 0))
        with pytest.raises(StoreRecoveryError):
            load_with_recovery(saved_store)


class TestRebuildRetry:
    def test_flaky_rebuild_retries_with_backoff(self, saved_store, small_prospector):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 5))
        calls = {"n": 0}
        naps = []

        def flaky_rebuild():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return small_prospector.registry, small_prospector.mined_jungloids

        recovered = load_with_recovery(
            saved_store,
            rebuild=flaky_rebuild,
            max_rebuild_attempts=3,
            backoff_ms=10.0,
            sleep=naps.append,
        )
        assert recovered.rung_used == RUNG_REBUILD
        assert recovered.diagnostics.rebuild_attempts == 3
        # Exponential backoff: 10 ms then 20 ms.
        assert naps == [0.01, 0.02]

    def test_retry_budget_is_bounded(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 5))
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("still down")

        with pytest.raises(StoreRecoveryError):
            load_with_recovery(
                saved_store, rebuild=always_fails,
                max_rebuild_attempts=4, sleep=lambda s: None,
            )
        assert calls["n"] == 4


class TestFlakyFileSystem:
    def test_transient_read_fault_descends_ladder(self, tmp_path, small_prospector):
        path = tmp_path / "graph.psnap"
        small_prospector.save_snapshot(path)
        small_prospector.save_snapshot(path)  # both generations on disk
        fs = FlakyFileSystem(fail_times=1)  # current read fails, prev succeeds
        store = SnapshotStore(path, read_bytes=fs.read_bytes)
        recovered = load_with_recovery(store)
        assert recovered.rung_used == RUNG_PREVIOUS
        assert fs.calls == 2
        [fault] = recovered.diagnostics.faults
        assert fault.stage == "read"

    def test_persistent_fault_exhausts_file_rungs(self, tmp_path, small_prospector):
        path = tmp_path / "graph.psnap"
        small_prospector.save_snapshot(path)
        fs = FlakyFileSystem(fail_times=10)
        store = SnapshotStore(path, read_bytes=fs.read_bytes)
        recovered = load_with_recovery(store, rebuild=_rebuild_from(small_prospector))
        assert recovered.rung_used == RUNG_REBUILD


class TestArbitraryCorruption:
    """The headline guarantee, swept across the whole file."""

    OFFSETS = [0.0, 0.05, 0.15, 0.3, 0.5, 0.7, 0.9, 0.99]

    @pytest.mark.parametrize("fraction", OFFSETS)
    def test_bit_flip_never_crashes_query(
        self, tmp_path, small_prospector, fraction
    ):
        path = tmp_path / "graph.psnap"
        small_prospector.save_snapshot(path)
        corrupt_file(
            path, lambda b: flip_byte(b, int(len(b) * fraction))
        )
        # verify never raises; it reports (or finds the flip harmless —
        # only possible in non-checksummed header fields).
        verify_snapshot(SnapshotStore(path))
        prospector = Prospector.from_snapshot(
            path, rebuild=_rebuild_from(small_prospector), sleep=lambda s: None
        )
        results = prospector.query("demo.io.InputStream", "demo.io.BufferedReader")
        assert results
        assert prospector.store_diagnostics.rung_used is not None

    @pytest.mark.parametrize("fraction", OFFSETS)
    def test_truncation_never_crashes_query(
        self, tmp_path, small_prospector, fraction
    ):
        path = tmp_path / "graph.psnap"
        small_prospector.save_snapshot(path)
        corrupt_file(path, lambda b: truncate_bytes(b, int(len(b) * fraction)))
        diagnostics = verify_snapshot(SnapshotStore(path))
        assert diagnostics.faults  # a shorter payload is always detected
        prospector = Prospector.from_snapshot(
            path, rebuild=_rebuild_from(small_prospector), sleep=lambda s: None
        )
        results = prospector.query("demo.io.InputStream", "demo.io.BufferedReader")
        assert results
        assert prospector.store_diagnostics.rung_used == RUNG_REBUILD
        assert prospector.store_diagnostics.degraded


class TestRepair:
    def test_repair_noop_when_sound(self, saved_store):
        before = saved_store.path.read_bytes()
        recovered = repair(saved_store)
        assert recovered.rung_used == RUNG_CURRENT
        assert saved_store.path.read_bytes() == before

    def test_repair_rewrites_from_previous(self, saved_store, small_prospector):
        small_prospector.save_snapshot(saved_store.path)
        corrupt_file(saved_store.path, lambda b: flip_byte(b, len(b) - 3))
        prev_before = saved_store.previous_path.read_bytes()
        recovered = repair(saved_store)
        assert recovered.rung_used == RUNG_PREVIOUS
        # Current is sound again, and the good previous generation was
        # NOT clobbered by the damaged file.
        assert not verify_snapshot(saved_store).faults
        assert saved_store.previous_path.read_bytes() == prev_before

    def test_repair_drops_an_edited_analysis_section(self, saved_store):
        head, _, payload = saved_store.path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["analysis"]["pairs"][0]["verdict"] = "inviable"
        saved_store.path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert [f.stage for f in verify_snapshot(saved_store).faults] == [STAGE_ANALYSIS]
        recovered = repair(saved_store)
        assert recovered.rung_used == RUNG_CURRENT and recovered.analysis is None
        assert verify_snapshot(saved_store).ok
        assert saved_store.load().analysis is None

    def test_repair_rebuilds_when_no_previous(self, saved_store, small_prospector):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 20))
        recovered = repair(saved_store, rebuild=_rebuild_from(small_prospector))
        assert recovered.rung_used == RUNG_REBUILD
        assert not verify_snapshot(saved_store).faults


class TestDiagnostics:
    def test_summary_ok(self, saved_store):
        diagnostics = verify_snapshot(saved_store)
        assert "store ok" in diagnostics.summary()
        assert diagnostics.ok

    def test_summary_migrated(self, tmp_path, small_registry):
        from repro.graph import bundle_to_json

        path = tmp_path / "legacy.json"
        path.write_text(bundle_to_json(small_registry, []), encoding="utf-8")
        diagnostics = verify_snapshot(SnapshotStore(path))
        assert "migrated from schema v1" in diagnostics.summary()

    def test_summary_lists_faults(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 30))
        diagnostics = verify_snapshot(saved_store)
        summary = diagnostics.summary()
        assert "snapshot damaged" in summary
        assert "current-snapshot" in summary

    def test_record_and_counts(self):
        diagnostics = StoreDiagnostics()
        diagnostics.record(RUNG_CURRENT, "verify", "boom")
        assert diagnostics.fault_count == 1
        assert diagnostics.degraded
        assert str(diagnostics.faults[0]) == "current-snapshot [verify]: boom"


class TestAuditedGraphReuse:
    """A snapshot load's audit builds the jungloid graph; the loaded
    instance serves from that graph instead of building it again."""

    @pytest.fixture()
    def build_calls(self, monkeypatch):
        calls = []
        original = JungloidGraph.build.__func__

        def counting(cls, *args, **kwargs):
            calls.append(kwargs.get("public_only"))
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(JungloidGraph, "build", classmethod(counting))
        return calls

    def _answers(self, prospector):
        return [
            s.jungloid.render_expression("x")
            for s in prospector.query("demo.ui.Viewer", "demo.ui.Item")
        ]

    def test_restart_builds_the_graph_once(self, saved_store, small_prospector, build_calls):
        loaded = Prospector.from_snapshot(saved_store.path, load_stages=False)
        assert build_calls == [True]
        assert loaded.store_diagnostics.ok
        assert self._answers(loaded) == self._answers(small_prospector)

    def test_recovered_store_carries_the_audited_graph(self, saved_store, build_calls):
        recovered = load_with_recovery(saved_store)
        assert build_calls == [True]
        assert recovered.graph is not None and recovered.public_only

    def test_other_flavour_builds_its_own_graph(self, saved_store, build_calls):
        config = ProspectorConfig(public_only=False)
        loaded = Prospector.from_snapshot(saved_store.path, config=config, load_stages=False)
        assert build_calls == [True, False]
        fresh = Prospector(loaded.registry, config=config, mined=loaded.mined_jungloids)
        assert self._answers(loaded) == self._answers(fresh)

    def test_rebuild_rung_carries_no_graph(self, saved_store, small_prospector):
        corrupt_file(saved_store.path, lambda data: truncate_bytes(data, 10))
        saved_store.previous_path.unlink(missing_ok=True)
        recovered = load_with_recovery(saved_store, rebuild=_rebuild_from(small_prospector))
        assert recovered.rung_used == RUNG_REBUILD and recovered.graph is None
