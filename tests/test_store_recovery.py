"""Tests for the recovery ladder, StoreDiagnostics, and fault injectors.

The acceptance property: a snapshot truncated or bit-flipped at an
arbitrary offset never crashes the engine — verification reports the
damage and a query still answers via the ladder, with the rung taken
visible in the diagnostics.
"""

import json

import pytest

from repro import Prospector, ProspectorConfig
from repro.apispec import load_api_text
from repro.core import repair_snapshot
from repro.core.prospector import REBUILD_ATTEMPTS
from repro.corpus import load_corpus_texts
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
    stage_sidecar_path,
    verify_snapshot,
)

from .conftest import SMALL_API, SMALL_CORPUS


@pytest.fixture()
def saved_store(tmp_path, small_prospector):
    store = SnapshotStore(tmp_path / "graph.psnap")
    small_prospector.save_snapshot(store.path)
    return store


@pytest.fixture()
def build_calls(monkeypatch):
    """The ``public_only`` flag of every ``JungloidGraph.build`` call."""
    calls = []
    original = JungloidGraph.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(kwargs.get("public_only"))
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(JungloidGraph, "build", classmethod(counting))
    return calls


def edit_a_verdict(store):
    """A valid-JSON edit of one verdict in the header's analysis section."""
    head, _, payload = store.path.read_bytes().partition(b"\n")
    header = json.loads(head)
    header["analysis"]["pairs"][0]["verdict"] = "inviable"
    store.path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def rebuild_small():
    """The corpus rebuild: a fresh instance over the small corpus."""
    registry = load_api_text(SMALL_API)
    return Prospector(registry, load_corpus_texts(registry, [("handler.mj", SMALL_CORPUS)]))


def load(store):
    diagnostics = StoreDiagnostics()
    return load_with_recovery(store, diagnostics), diagnostics


class TestLadder:
    def test_clean_load_uses_current_rung(self, saved_store):
        loaded, diagnostics = load(saved_store)
        assert loaded is not None and loaded.path == saved_store.path
        assert diagnostics.rung_used == RUNG_CURRENT
        assert diagnostics.ok
        assert not diagnostics.degraded

    def test_corrupt_current_falls_to_previous(self, saved_store, small_prospector):
        small_prospector.save_snapshot(saved_store.path)  # rotate a .prev out
        corrupt_file(saved_store.path, lambda b: flip_byte(b, len(b) // 2))
        loaded, diagnostics = load(saved_store)
        assert loaded.path == saved_store.previous_path
        assert diagnostics.rung_used == RUNG_PREVIOUS
        assert diagnostics.degraded
        assert diagnostics.faults_for(RUNG_CURRENT)

    def test_both_generations_bad_rebuilds(self, saved_store, small_prospector):
        small_prospector.save_snapshot(saved_store.path)
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 10))
        corrupt_file(saved_store.previous_path, lambda b: flip_byte(b, 100))
        rebuilt = []

        def rebuild():
            rebuilt.append(rebuild_small())
            return rebuilt[-1]

        prospector = Prospector.from_snapshot(saved_store.path, rebuild=rebuild)
        # The rung serves the very instance the rebuild built.
        assert [prospector] == rebuilt and prospector.pipeline is not None
        diagnostics = prospector.store_diagnostics
        assert diagnostics.rung_used == RUNG_REBUILD
        assert prospector.mined_jungloids == small_prospector.mined_jungloids
        rungs_failed = {f.rung for f in diagnostics.faults}
        assert rungs_failed == {RUNG_CURRENT, RUNG_PREVIOUS}

    def test_all_rungs_fail_raises_with_diagnostics(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 0))

        def always_fails():
            raise RuntimeError("corpus volume offline")

        with pytest.raises(StoreRecoveryError) as exc_info:
            Prospector.from_snapshot(
                saved_store.path, rebuild=always_fails, sleep=lambda s: None
            )
        diagnostics = exc_info.value.diagnostics
        assert diagnostics.rung_used is None
        assert diagnostics.rebuild_attempts == REBUILD_ATTEMPTS
        assert "corpus volume offline" in diagnostics.summary()

    def test_no_rebuild_callable_raises(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 0))
        loaded, diagnostics = load(saved_store)
        assert loaded is None and diagnostics.rung_used is None
        with pytest.raises(StoreRecoveryError):
            Prospector.from_snapshot(saved_store.path)


class TestRebuildRetry:
    def test_flaky_rebuild_retries_with_backoff(self, saved_store, small_prospector):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 5))
        calls = {"n": 0}
        naps = []

        def flaky_rebuild():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return rebuild_small()

        prospector = Prospector.from_snapshot(
            saved_store.path, rebuild=flaky_rebuild, sleep=naps.append
        )
        assert prospector.store_diagnostics.rung_used == RUNG_REBUILD
        assert prospector.store_diagnostics.rebuild_attempts == 3
        # Exponential backoff: 50 ms then 100 ms.
        assert naps == [0.05, 0.1]

    def test_retry_budget_is_bounded(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 5))
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("still down")

        with pytest.raises(StoreRecoveryError):
            Prospector.from_snapshot(
                saved_store.path, rebuild=always_fails, sleep=lambda s: None
            )
        assert calls["n"] == REBUILD_ATTEMPTS == 3


class TestFlakyFileSystem:
    def test_transient_read_fault_descends_ladder(self, tmp_path, small_prospector):
        path = tmp_path / "graph.psnap"
        small_prospector.save_snapshot(path)
        small_prospector.save_snapshot(path)  # both generations on disk
        fs = FlakyFileSystem(fail_times=1)  # current read fails, prev succeeds
        store = SnapshotStore(path, read_bytes=fs.read_bytes)
        loaded, diagnostics = load(store)
        assert loaded is not None and diagnostics.rung_used == RUNG_PREVIOUS
        assert fs.calls == 2
        [fault] = diagnostics.faults
        assert fault.stage == "read"

    def test_persistent_fault_exhausts_file_rungs(self, tmp_path, small_prospector):
        path = tmp_path / "graph.psnap"
        small_prospector.save_snapshot(path)
        fs = FlakyFileSystem(fail_times=10)
        store = SnapshotStore(path, read_bytes=fs.read_bytes)
        loaded, diagnostics = load(store)
        assert loaded is None and diagnostics.rung_used is None
        assert {f.rung for f in diagnostics.faults} == {RUNG_CURRENT, RUNG_PREVIOUS}


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
            path, rebuild=rebuild_small, sleep=lambda s: None
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
            path, rebuild=rebuild_small, sleep=lambda s: None
        )
        results = prospector.query("demo.io.InputStream", "demo.io.BufferedReader")
        assert results
        assert prospector.store_diagnostics.rung_used == RUNG_REBUILD
        assert prospector.store_diagnostics.degraded


class TestRepair:
    def test_repair_noop_when_sound(self, saved_store):
        before = saved_store.path.read_bytes()
        repaired = repair_snapshot(saved_store.path)
        assert repaired.store_diagnostics.ok
        assert saved_store.path.read_bytes() == before

    def test_repair_rewrites_from_previous(self, saved_store, small_prospector):
        small_prospector.save_snapshot(saved_store.path)
        corrupt_file(saved_store.path, lambda b: flip_byte(b, len(b) - 3))
        prev_before = saved_store.previous_path.read_bytes()
        repaired = repair_snapshot(saved_store.path)
        assert repaired.store_diagnostics.rung_used == RUNG_PREVIOUS
        # Current is sound again, and the good previous generation was
        # NOT clobbered by the damaged file.
        assert not verify_snapshot(saved_store).faults
        assert saved_store.previous_path.read_bytes() == prev_before

    def test_repair_drops_an_edited_analysis_section(self, saved_store):
        # Without a stage file the instance has no verdicts to restore
        # the section from.
        stage_sidecar_path(saved_store.path).unlink()
        edit_a_verdict(saved_store)
        assert [f.stage for f in verify_snapshot(saved_store).faults] == [STAGE_ANALYSIS]
        repaired = repair_snapshot(saved_store.path)
        assert repaired.store_diagnostics.rung_used == RUNG_CURRENT
        assert repaired.verdicts is None
        assert verify_snapshot(saved_store).ok
        assert saved_store.load().analysis is None

    def test_repair_restores_an_edited_analysis_section_from_the_stage_file(
        self, saved_store, small_prospector
    ):
        edit_a_verdict(saved_store)
        repaired = repair_snapshot(saved_store.path)
        assert repaired.store_diagnostics.rung_used == RUNG_CURRENT
        assert repaired.pipeline is not None
        assert verify_snapshot(saved_store).ok
        want = small_prospector.verdicts.to_dict()
        assert saved_store.load().analysis == want

    def test_repairing_an_analysis_fault_builds_no_second_graph(
        self, saved_store, build_calls
    ):
        edit_a_verdict(saved_store)
        repair_snapshot(saved_store.path)
        assert build_calls == [True]  # the load audit's graph is saved
        # The rewrite keeps the stage file bound, so the next update is
        # incremental.
        build_calls.clear()
        loaded = Prospector.from_snapshot(saved_store.path)
        assert loaded.store_diagnostics.ok and loaded.pipeline is not None
        stats = loaded.update_corpus(
            upserts=[("handler.mj", SMALL_CORPUS + "\n// touched\n")]
        )
        assert stats.files_remined == ("handler.mj",) and not stats.initial
        assert build_calls == [True]

    def test_repair_rebuilds_when_no_previous(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 20))
        repaired = repair_snapshot(saved_store.path, rebuild=rebuild_small)
        assert repaired.store_diagnostics.rung_used == RUNG_REBUILD
        assert not verify_snapshot(saved_store).faults
        # The rewrite is an ordinary save of the rebuilt instance: it
        # carries its verdicts and binds its stage file.
        assert saved_store.load().analysis == repaired.verdicts.to_dict()
        assert Prospector.from_snapshot(saved_store.path).pipeline is not None


class TestDiagnostics:
    def test_summary_ok(self, saved_store):
        diagnostics = verify_snapshot(saved_store)
        assert "store ok" in diagnostics.summary()
        assert diagnostics.ok

    def test_summary_migrated(self, tmp_path, small_registry):
        """A bare bundle, which once loaded as a schema-1 migration, is
        now a fault: the summary names it and claims no migration."""
        from repro.graph import bundle_to_json

        path = tmp_path / "export.json"
        path.write_text(bundle_to_json(small_registry, []), encoding="utf-8")
        diagnostics = verify_snapshot(SnapshotStore(path))
        summary = diagnostics.summary()
        assert summary.startswith("snapshot damaged")
        assert "current-snapshot [verify]" in summary
        assert "not a snapshot (format 'prospector-bundle-v1')" in summary
        assert "migrated from schema" not in summary

    def test_summary_lists_faults(self, saved_store):
        corrupt_file(saved_store.path, lambda b: truncate_bytes(b, 30))
        diagnostics = verify_snapshot(saved_store)
        summary = diagnostics.summary()
        assert "snapshot damaged" in summary
        assert "current-snapshot" in summary

    def test_summary_names_a_dropped_analysis_section(self, saved_store):
        edit_a_verdict(saved_store)
        head = verify_snapshot(saved_store).summary().splitlines()[0]
        assert head == "store degraded: current snapshot loaded without its analysis section"

    def test_record_and_counts(self):
        diagnostics = StoreDiagnostics()
        diagnostics.record(RUNG_CURRENT, "verify", "boom")
        assert diagnostics.fault_count == 1
        assert diagnostics.degraded
        assert str(diagnostics.faults[0]) == "current-snapshot [verify]: boom"


class TestAuditedGraphReuse:
    """A snapshot load's audit builds the jungloid graph; the loaded
    instance serves from that graph instead of building it again."""

    def _answers(self, prospector):
        return [
            s.jungloid.render_expression("x")
            for s in prospector.query("demo.ui.Viewer", "demo.ui.Item")
        ]

    def test_restart_builds_the_graph_once(self, saved_store, small_prospector, build_calls):
        # The adopted pipeline grafts into the audit graph; without a
        # stage file the instance serves that graph itself.
        for adopted in (True, False):
            if not adopted:
                stage_sidecar_path(saved_store.path).unlink()
            build_calls.clear()
            loaded = Prospector.from_snapshot(saved_store.path)
            assert (loaded.pipeline is not None) == adopted
            assert build_calls == [True]
            assert loaded.store_diagnostics.ok
            assert self._answers(loaded) == self._answers(small_prospector)

    def test_recovered_store_carries_the_audited_graph(self, saved_store, build_calls):
        loaded, _ = load(saved_store)
        assert build_calls == [True]
        assert loaded.graph is not None and loaded.manifest.public_only

    def test_other_flavour_builds_its_own_graph(self, saved_store, build_calls):
        config = ProspectorConfig(public_only=False)
        for adopted in (True, False):
            if not adopted:
                stage_sidecar_path(saved_store.path).unlink()
            build_calls.clear()
            loaded = Prospector.from_snapshot(saved_store.path, config=config)
            assert (loaded.pipeline is not None) == adopted
            assert build_calls == [True, False]
            fresh = Prospector(loaded.registry, config=config, mined=loaded.mined_jungloids)
            assert self._answers(loaded) == self._answers(fresh)

    def test_rebuild_rung_carries_no_graph(self, saved_store, build_calls):
        """No snapshot graph survives to the rebuild rung: the instance
        serves the graph its rebuild built, and nothing builds another."""
        corrupt_file(saved_store.path, lambda data: truncate_bytes(data, 10))
        saved_store.previous_path.unlink(missing_ok=True)
        assert load(saved_store)[0] is None
        build_calls.clear()
        prospector = Prospector.from_snapshot(saved_store.path, rebuild=rebuild_small)
        assert prospector.store_diagnostics.rung_used == RUNG_REBUILD
        assert build_calls == [True]
