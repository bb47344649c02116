"""Tests for stage artifacts: fingerprints, the snapshot's stage file
(the pipeline's inputs, nothing derived), and incremental restarts."""

import itertools
import json

import pytest

from repro import Prospector
from repro.apispec import load_api_text
from repro.corpus import load_corpus_texts
from repro.pipeline import (
    STAGE_FORMAT,
    CorpusPipeline,
    StageFormatError,
    check_stage_dict,
    diff_fingerprints,
    fingerprint_text,
    fingerprint_texts,
)
from repro.store import (
    RUNG_PREVIOUS,
    STAGE_ANALYSIS,
    SnapshotStore,
    payload_digest,
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
        assert not diff.is_empty
        assert diff_fingerprints(old, old).is_empty


@pytest.fixture()
def small_pipeline(small_registry):
    return CorpusPipeline.build(small_registry, [("handler.mj", SMALL_CORPUS)])


#: The stage file's keys: the pipeline's inputs and nothing derived.
STAGE_KEYS = {"format", "texts", "lenient", "check"}


class TestRecordRoundTrip:
    def test_stage_dict_is_json_safe(self, small_pipeline):
        data = small_pipeline.to_stage_dict()
        check_stage_dict(json.loads(json.dumps(data)))

    def test_check_rejects_foreign_or_incomplete_dicts(self, small_pipeline):
        with pytest.raises(StageFormatError):
            check_stage_dict({"format": "something-else"})
        data = small_pipeline.to_stage_dict()
        del data["texts"]
        with pytest.raises(StageFormatError):
            check_stage_dict(data)

    def test_stage_file_holds_only_the_inputs(self, tmp_path, small_prospector):
        snap = tmp_path / "g.snap"
        small_prospector.save_snapshot(snap)
        data = json.loads(stage_sidecar_path(snap).read_bytes())
        assert set(data) == STAGE_KEYS
        assert data["format"] == STAGE_FORMAT
        assert data["texts"] == [["handler.mj", SMALL_CORPUS]]


class TestFromArtifacts:
    def test_restart_remines_every_loaded_file(self, small_registry, small_pipeline):
        from repro.mining import ExtractionConfig

        data = json.loads(json.dumps(small_pipeline.to_stage_dict()))
        # Under the saved build's extraction config and under another
        # one, the restart mines every file as a fresh build does.
        for extraction in (small_pipeline.extraction, ExtractionConfig(max_steps=3)):
            reborn = CorpusPipeline.from_artifacts(small_registry, data, extraction=extraction)
            fresh = CorpusPipeline.build(
                small_registry, small_pipeline.texts, extraction=extraction
            )
            assert reborn.last_stats.files_remined == ("handler.mj",)
            assert reborn.last_stats.files_reused == 0
            assert [j.steps for j in reborn.suffixes] == [j.steps for j in fresh.suffixes]
        assert [j.steps for j in fresh.suffixes] != [j.steps for j in small_pipeline.suffixes]

    def test_restart_reuses_cached_records(self, small_registry, small_pipeline):
        data = json.loads(json.dumps(small_pipeline.to_stage_dict()))
        reborn = CorpusPipeline.from_artifacts(small_registry, data)
        assert [j.steps for j in reborn.suffixes] == [
            j.steps for j in small_pipeline.suffixes
        ]
        # The records the restart mined are the cache the next update
        # reuses: adding a file mines only that file.
        other = SMALL_CORPUS.replace("class Handler", "class Other")
        stats = reborn.update([("other.mj", other)], ())
        assert stats.files_remined == ("other.mj",)
        assert stats.files_reused == 1

    def test_an_older_stage_file_is_adopted_and_its_knob_ignored(
        self, small_registry, small_pipeline
    ):
        # Stage files used to carry the generalizer's min_precast_steps.
        data = json.loads(json.dumps(small_pipeline.to_stage_dict()))
        data["min_precast_steps"] = 3
        reborn = CorpusPipeline.from_artifacts(small_registry, check_stage_dict(data))
        assert reborn.texts == small_pipeline.texts
        assert [j.steps for j in reborn.suffixes] == [j.steps for j in small_pipeline.suffixes]
        assert "min_precast_steps" not in reborn.to_stage_dict()

    def test_changed_extraction_config_discards_cache(
        self, small_registry, small_pipeline
    ):
        from repro.mining import ExtractionConfig

        data = small_pipeline.to_stage_dict()
        reborn = CorpusPipeline.from_artifacts(
            small_registry, data, extraction=ExtractionConfig(max_steps=3)
        )
        # The restart mines under the caller's config, not the saved build's.
        assert reborn.last_stats.files_remined == ("handler.mj",)


#: Type-bad (it assigns an Object to a Panel), but it resolves.
TYPE_BAD = """
package client;
import demo.ui.Panel;
import demo.ui.Viewer;
import demo.ui.Widget;
import demo.ui.Item;
public class Loose {
  public Item pick(Viewer viewer, Widget w) {
    Panel panel = viewer.getInput();
    Item item = (Item) w;
    return item;
  }
}
"""


class TestCheckSurvivesARestart:
    def test_unchecked_corpus_stays_unchecked(self, tmp_path, small_registry):
        texts = [("handler.mj", SMALL_CORPUS), ("loose.mj", TYPE_BAD)]
        checked = load_corpus_texts(small_registry, texts, lenient=True)
        assert checked.diagnostics.quarantined_sources() == ["loose.mj"]
        first = Prospector(
            small_registry,
            load_corpus_texts(small_registry, texts, check=False, lenient=True),
        )
        assert first.corpus_diagnostics.quarantined_sources() == []
        snap = tmp_path / "g.snap"
        first.save_snapshot(snap)
        second = Prospector.from_snapshot(snap)
        assert second.pipeline is not None and not second.pipeline.check
        assert second.corpus_diagnostics.quarantined_sources() == []
        query = ("demo.ui.Widget", "demo.ui.Item")
        assert render(second, query) == render(first, query)


class TestSidecar:
    def test_save_load_round_trip(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        payload = small_pipeline.to_stage_dict()
        digest = save_stage_sidecar(snap, payload)
        assert digest == payload_digest(stage_sidecar_path(snap).read_bytes())
        assert try_load_stage_sidecar(snap, digest) == json.loads(json.dumps(payload))

    def test_missing_and_damaged_sidecars(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        assert try_load_stage_sidecar(snap, "a" * 64) is None
        digest = save_stage_sidecar(snap, small_pipeline.to_stage_dict())
        assert try_load_stage_sidecar(snap, None) is None  # no manifest digest
        path = stage_sidecar_path(snap)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one byte
        path.write_bytes(bytes(raw))
        assert try_load_stage_sidecar(snap, digest) is None

    def test_sidecar_is_bound_to_its_snapshot_generation(self, tmp_path, small_pipeline):
        # The manifest's digest is the binding: a stage file written for
        # another generation, or edited into valid JSON, is refused.
        snap = tmp_path / "g.snap"
        data = small_pipeline.to_stage_dict()
        digest = save_stage_sidecar(snap, data)
        assert try_load_stage_sidecar(snap, digest)
        data["texts"][0][1] += "\n// edited\n"
        newer = save_stage_sidecar(snap, data)
        assert newer != digest
        assert try_load_stage_sidecar(snap, digest) is None
        assert try_load_stage_sidecar(snap, newer) == data

    def test_truncated_sidecar_rejected(self, tmp_path, small_pipeline):
        snap = tmp_path / "g.snap"
        digest = save_stage_sidecar(snap, small_pipeline.to_stage_dict())
        path = stage_sidecar_path(snap)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        assert try_load_stage_sidecar(snap, digest) is None


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
        assert second.pipeline is None  # B's intact stage file is refused
        assert try_load_stage_sidecar(snap, newer.stages_sha256)
        previous = SnapshotStore(snap).load("previous").manifest
        assert try_load_stage_sidecar(snap, previous.stages_sha256) is None
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
        for adopted, section in itertools.product((True, False), sections):
            if not adopted:
                stage_sidecar_path(snap).unlink(missing_ok=True)
            header["analysis"] = section
            snap.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
            second = Prospector.from_snapshot(snap)
            assert (second.pipeline is not None) == adopted
            diagnostics = second.store_diagnostics
            assert not diagnostics.ok, section
            assert [fault.stage for fault in diagnostics.faults] == [STAGE_ANALYSIS]
            assert "[analysis]: analysis section unusable" in diagnostics.summary()
            if adopted:  # the pipeline's verdicts replace the lost ones
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
        for adopted in (True, False):
            if not adopted:
                stage_sidecar_path(snap).unlink()
            second = Prospector.from_snapshot(snap)
            assert (second.pipeline is not None) == adopted
            diagnostics = second.store_diagnostics
            assert [fault.stage for fault in diagnostics.faults] == [STAGE_ANALYSIS]
            assert "SHA-256 mismatch" in diagnostics.summary()
            if adopted:  # the pipeline's verdicts, not the edited ones
                assert second.verdicts.to_dict() == first.verdicts.to_dict()
            else:
                assert second.verdicts is None


def render(prospector, query):
    return [s.jungloid.render_expression("x") for s in prospector.query(*query)]
