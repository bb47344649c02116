"""Tests for stage artifacts: fingerprints, per-file record round-trips,
the snapshot stage sidecar, and incremental restarts."""

import itertools
import json

import pytest

from repro import Prospector
from repro.apispec import load_api_text
from repro.corpus import load_corpus_texts
from repro.pipeline import (
    CorpusPipeline,
    FileMineRecord,
    StageFormatError,
    check_stage_dict,
    diff_fingerprints,
    fingerprint_text,
    fingerprint_texts,
)
from repro.store import (
    RUNG_PREVIOUS,
    STAGE_ANALYSIS,
    SnapshotCorruptError,
    SnapshotStore,
    StageSidecarMismatchError,
    load_stage_sidecar,
    save_stage_sidecar,
    stage_sidecar_path,
    try_load_stage_sidecar,
)

from .conftest import SMALL_API, SMALL_CORPUS


class TestFingerprints:
    def test_deterministic_and_content_sensitive(self):
        assert fingerprint_text("abc") == fingerprint_text("abc")
        assert fingerprint_text("abc") != fingerprint_text("abd")

    def test_duplicate_source_names_rejected(self):
        with pytest.raises(ValueError):
            fingerprint_texts([("a.mj", "x"), ("a.mj", "y")])

    def test_diff_categories(self):
        old = fingerprint_texts([("a.mj", "1"), ("b.mj", "2"), ("c.mj", "3")])
        new = fingerprint_texts([("a.mj", "1"), ("b.mj", "2x"), ("d.mj", "4")])
        diff = diff_fingerprints(old, new)
        assert diff.added == ("d.mj",)
        assert diff.changed == ("b.mj",)
        assert diff.removed == ("c.mj",)
        assert diff.unchanged == ("a.mj",)
        assert not diff.is_empty
        assert diff_fingerprints(old, old).is_empty


@pytest.fixture()
def small_pipeline(small_registry):
    return CorpusPipeline.build(small_registry, [("handler.mj", SMALL_CORPUS)])


class TestRecordRoundTrip:
    def test_record_survives_dict_round_trip(self, small_pipeline):
        registry = small_pipeline.program.registry
        for record in small_pipeline.records.values():
            back = FileMineRecord.from_dict(registry, record.to_dict())
            assert back.source == record.source
            assert back.fingerprint == record.fingerprint
            assert back.examples == record.examples
            assert back.faults == record.faults
            assert back.decl_deps == record.decl_deps
            assert back.site_deps == record.site_deps
            assert back.type_deps == record.type_deps

    def test_stage_dict_is_json_safe(self, small_pipeline):
        data = small_pipeline.to_stage_dict()
        check_stage_dict(json.loads(json.dumps(data)))

    def test_check_rejects_foreign_or_incomplete_dicts(self, small_pipeline):
        with pytest.raises(StageFormatError):
            check_stage_dict({"format": "something-else"})
        data = small_pipeline.to_stage_dict()
        del data["records"]
        with pytest.raises(StageFormatError):
            check_stage_dict(data)


class TestFromArtifacts:
    def test_restart_reuses_cached_records(self, small_registry, small_pipeline):
        data = json.loads(json.dumps(small_pipeline.to_stage_dict()))
        reborn = CorpusPipeline.from_artifacts(small_registry, data)
        assert [j.steps for j in reborn.suffixes] == [
            j.steps for j in small_pipeline.suffixes
        ]
        # The rebuild mined nothing: every record came from the artifacts.
        assert reborn.last_stats.files_remined == ()
        assert reborn.last_stats.files_reused == 1

    def test_changed_extraction_config_discards_cache(
        self, small_registry, small_pipeline
    ):
        from repro.mining import ExtractionConfig

        data = small_pipeline.to_stage_dict()
        reborn = CorpusPipeline.from_artifacts(
            small_registry, data, extraction=ExtractionConfig(max_steps=3)
        )
        # Config mismatch: cached examples may be stale, so re-mine all.
        assert reborn.last_stats.files_remined == ("handler.mj",)


#: A stand-in snapshot payload digest for sidecars saved outside a store.
GENERATION = "a" * 64


class TestSidecar:
    def test_save_load_round_trip(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        payload = small_pipeline.to_stage_dict()
        written = save_stage_sidecar(snap, payload, GENERATION)
        assert written == stage_sidecar_path(snap)
        assert load_stage_sidecar(snap, GENERATION) == json.loads(json.dumps(payload))

    def test_missing_and_damaged_sidecars(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        assert try_load_stage_sidecar(snap, GENERATION) is None
        path = save_stage_sidecar(snap, small_pipeline.to_stage_dict(), GENERATION)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            load_stage_sidecar(snap, GENERATION)
        assert try_load_stage_sidecar(snap, GENERATION) is None

    def test_sidecar_is_bound_to_its_snapshot_generation(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        save_stage_sidecar(snap, small_pipeline.to_stage_dict(), GENERATION)
        assert load_stage_sidecar(snap, GENERATION)
        with pytest.raises(StageSidecarMismatchError):
            load_stage_sidecar(snap, "b" * 64)
        assert try_load_stage_sidecar(snap, "b" * 64) is None

    def test_truncated_sidecar_rejected(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        path = save_stage_sidecar(snap, small_pipeline.to_stage_dict(), GENERATION)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(SnapshotCorruptError):
            load_stage_sidecar(snap, GENERATION)


class TestProspectorRestart:
    def queries(self):
        return [("demo.ui.ISelection", "demo.ui.Item")]

    def answers(self, prospector):
        return [
            [s.jungloid.render_expression("x") for s in prospector.query(a, b)]
            for a, b in self.queries()
        ]

    def test_snapshot_restart_stays_incremental(self, tmp_path, small_registry):
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        assert stage_sidecar_path(snap).exists()

        second = Prospector.from_snapshot(snap)
        assert second.pipeline is not None
        assert self.answers(second) == self.answers(first)
        # The restart can update incrementally: untouched files reuse
        # their persisted records.
        search = second.search
        stats = second.update_corpus(
            upserts=[("handler.mj", SMALL_CORPUS + "\n// touched\n")]
        )
        assert stats.files_remined == ("handler.mj",)
        assert second.search is search  # the graft lands in the served graph
        assert self.answers(second) == self.answers(first)

    def test_damaged_sidecar_degrades_to_query_only(self, tmp_path, small_registry):
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        stage_sidecar_path(snap).write_bytes(b"garbage\nnot json")

        second = Prospector.from_snapshot(snap)
        assert second.pipeline is None  # sidecar unusable, snapshot fine
        assert self.answers(second) == self.answers(first)
        with pytest.raises(RuntimeError):
            second.update_corpus(upserts=[("handler.mj", SMALL_CORPUS)])

    def test_recovered_generation_refuses_the_newer_sidecar(self, tmp_path, small_registry):
        query = ("demo.ui.Viewer", "demo.ui.Item")
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)  # generation A mines handler.mj
        mined_answer = render(first, query)
        first.update_corpus(removes=["handler.mj"])
        newer = first.save_snapshot(snap)  # generation B; A rotates to .prev
        assert render(first, query) != mined_answer
        raw = snap.read_bytes()
        snap.write_bytes(raw[: len(raw) // 2])  # tear the current generation

        second = Prospector.from_snapshot(snap)
        assert second.store_diagnostics.rung_used == RUNG_PREVIOUS
        assert second.pipeline is None  # B's intact sidecar is refused
        assert load_stage_sidecar(snap, newer.payload_sha256)
        with pytest.raises(StageSidecarMismatchError):
            load_stage_sidecar(
                snap, SnapshotStore(snap).load("previous").manifest.payload_sha256
            )
        registry = load_api_text(SMALL_API)
        fresh = Prospector(registry, load_corpus_texts(registry, [("handler.mj", SMALL_CORPUS)]))
        assert render(second, query) == render(fresh, query) == mined_answer
        assert second.mined_jungloids == fresh.mined_jungloids
        again = tmp_path / "again.snap"
        second.save_snapshot(again)
        assert render(Prospector.from_snapshot(again), query) == mined_answer

    def test_damaged_analysis_section_is_a_store_fault(self, tmp_path, small_registry):
        query = ("demo.ui.Viewer", "demo.ui.Item")
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        assert first.verdicts is not None
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        head, _, payload = snap.read_bytes().partition(b"\n")
        header = json.loads(head)
        # A section from_dict rejects, and sections that are no object.
        sections = ({"pairs": [{"operand": "demo.ui.Viewer"}]}, ["not", "an", "object"], "garbage", 42)
        for section, load_stages in itertools.product(sections, (True, False)):
            header["analysis"] = section
            snap.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
            second = Prospector.from_snapshot(snap, load_stages=load_stages)
            diagnostics = second.store_diagnostics
            assert not diagnostics.ok, section
            assert [fault.stage for fault in diagnostics.faults] == [STAGE_ANALYSIS]
            assert "[analysis]: analysis section unusable" in diagnostics.summary()
            if load_stages:  # the sidecar's verdicts replace the lost ones
                assert second.verdicts is not None
                assert render(second, query) == render(first, query)
            else:
                assert second.verdicts is None
                assert sorted(render(second, query)) == sorted(render(first, query))

    def test_edited_verdict_is_a_store_fault(self, tmp_path, small_registry):
        # A valid-JSON edit of one verdict: only the manifest's digest of
        # the section can tell it from the saved one.
        corpus = load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)])
        first = Prospector(small_registry, corpus)
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        head, _, payload = snap.read_bytes().partition(b"\n")
        header = json.loads(head)
        pair = header["analysis"]["pairs"][0]
        assert pair["verdict"] == "justified"
        pair["verdict"] = "inviable"
        snap.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        for load_stages in (True, False):
            second = Prospector.from_snapshot(snap, load_stages=load_stages)
            diagnostics = second.store_diagnostics
            assert [fault.stage for fault in diagnostics.faults] == [STAGE_ANALYSIS]
            assert "SHA-256 mismatch" in diagnostics.summary()
            if load_stages:  # the sidecar's verdicts, not the edited ones
                assert second.verdicts.to_dict() == first.verdicts.to_dict()
            else:
                assert second.verdicts is None


def render(prospector, query):
    return [s.jungloid.render_expression("x") for s in prospector.query(*query)]
