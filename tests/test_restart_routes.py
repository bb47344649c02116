"""Every route to a serving instance answers like a fresh build.

An instance can get its graph from a fresh build, an update, a restart
from the current snapshot generation, a fall back to ``<path>.prev``
after a torn save or a refused layout (a ``dump-bundle`` export, an
older or newer schema), a corpus rebuild after both generations are
torn or refused, a restart whose stage file is missing, edited, or a
schema-2 sidecar, a restart whose stage file an older build saved with
mine records, or a restart after :func:`repair_snapshot` from any rung.
After each, the ranked answers and their verdicts must equal a fresh
build of the texts that generation holds. The snapshot's manifest
binds it to its stage file, so a stage file whose bytes do not hash to
the loaded manifest's ``stages_sha256`` must never be adopted: adopting
one would serve another corpus. An adopted stage file gives the texts
only: a restart mines them again.
"""

import json
from dataclasses import asdict

import pytest

from repro import Prospector
from repro.apispec import load_api_text
from repro.core import repair_snapshot
from repro.corpus import load_corpus_texts
from repro.data import corpus_texts
from repro.eval import TABLE1_PROBLEMS
from repro.mining import ExtractionConfig
from repro.pipeline import fingerprint_text
from repro.store import (
    PREVIOUS_SUFFIX,
    RUNG_CURRENT,
    RUNG_PREVIOUS,
    RUNG_REBUILD,
    STAGE_ANALYSIS,
    STAGE_VERIFY,
    SnapshotCorruptError,
    SnapshotFormatError,
    SnapshotStore,
    payload_digest,
    save_stage_sidecar,
    stage_sidecar_path,
    verify_snapshot,
)

from .conftest import SMALL_API, SMALL_CORPUS
from .resolution_oracle import QUERIES, VERSIONS, assert_matches_fresh, ranked_answers

#: The queries, plus one whose answer ``h.mj`` mines.
ROUTE_QUERIES = QUERIES + (("demo.ui.Viewer", "demo.ui.Item"),)

#: Generation A; generation B drops ``h.mj`` and edits ``c.mj``.
TEXTS_A = [
    ("a.mj", VERSIONS["a.mj"][0]),
    ("b.mj", VERSIONS["b.mj"][0]),
    ("c.mj", VERSIONS["c.mj"][0]),
    ("h.mj", SMALL_CORPUS),
]
TEXTS_B = [
    ("a.mj", VERSIONS["a.mj"][0]),
    ("b.mj", VERSIONS["b.mj"][0]),
    ("c.mj", VERSIONS["c.mj"][1]),
]


def fresh_build(texts):
    registry = load_api_text(SMALL_API)
    return Prospector(registry, load_corpus_texts(registry, texts, lenient=True))


def fresh_answers(texts):
    return ranked_answers(fresh_build(texts), ROUTE_QUERIES)


def answers(prospector):
    return ranked_answers(prospector, ROUTE_QUERIES)


@pytest.fixture(scope="module")
def want():
    a, b = fresh_answers(TEXTS_A), fresh_answers(TEXTS_B)
    assert a != b  # otherwise adopting the wrong generation would not show
    return {"A": a, "B": b}


@pytest.fixture()
def snap(tmp_path):
    """Generation A saved, updated to B and saved again: A is ``.prev``
    and the stage file is B's."""
    registry = load_api_text(SMALL_API)
    live = Prospector(registry, load_corpus_texts(registry, TEXTS_A, lenient=True))
    path = tmp_path / "graph.psnap"
    live.save_snapshot(path)
    live.update_corpus(
        upserts=[("c.mj", VERSIONS["c.mj"][1])], removes=["h.mj"]
    )
    live.save_snapshot(path)
    return path


def restart(path, rung=RUNG_CURRENT, rebuild=None):
    loaded = Prospector.from_snapshot(path, rebuild=rebuild)
    assert loaded.store_diagnostics.rung_used == rung
    assert not loaded.store_diagnostics.faults or rung != RUNG_CURRENT
    return loaded


def tear(path):
    """Cut a generation's payload in half, keeping its header."""
    head, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(head + b"\n" + payload[: len(payload) // 2])


def tear_both(path):
    tear(path)
    tear(path.with_name(path.name + PREVIOUS_SUFFIX))


def edit_header(path, edit):
    head, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


def _downgrade(version, *dropped):
    """A header edit to ``version`` that drops the manifest keys (and
    header sections) that version did not write."""

    def edit(header):
        header["schema_version"] = version
        for key in dropped:
            if key == "analysis":
                header.pop(key, None)
            else:
                header["manifest"].pop(key)

    return edit


#: Header edits that make a schema-5 file each layout the store refuses.
LAYOUTS = {
    "v2": _downgrade(2, "analysis", "analysis_sha256", "stages_sha256"),
    "v3": _downgrade(3, "analysis_sha256", "stages_sha256"),
    "v4": _downgrade(4, "stages_sha256"),
    "v6": _downgrade(6),
}


def refuse(path, layout):
    """Rewrite one generation as ``layout``: a header edit, or the
    payload alone as a ``dump-bundle`` export (compact or pretty)."""
    if layout in LAYOUTS:
        edit_header(path, LAYOUTS[layout])
        return
    payload = path.read_bytes().partition(b"\n")[2]
    if layout == "bundle-pretty":
        payload = json.dumps(json.loads(payload), indent=2).encode("utf-8")
    path.write_bytes(payload)


def loaded_sources(prospector):
    return tuple(u.source for u in prospector.pipeline.program.units)


class TestRoutes:
    def test_fresh_build_and_update(self, want):
        registry = load_api_text(SMALL_API)
        live = Prospector(registry, load_corpus_texts(registry, TEXTS_A, lenient=True))
        assert answers(live) == want["A"]
        live.update_corpus(
            upserts=[("c.mj", VERSIONS["c.mj"][1])], removes=["h.mj"]
        )
        assert answers(live) == want["B"]

    def test_current_generation_adopts_its_stage_file(self, snap, want):
        loaded = restart(snap)
        assert loaded.pipeline is not None
        assert loaded.pipeline.last_stats.files_remined == loaded_sources(loaded)
        assert answers(loaded) == want["B"]
        # ... and updates incrementally from there.
        stats = loaded.update_corpus(upserts=[("h.mj", SMALL_CORPUS)])
        assert stats.files_remined == ("h.mj",)
        assert answers(loaded) == fresh_answers(TEXTS_B + [("h.mj", SMALL_CORPUS)])

    def test_fall_back_to_previous_refuses_the_newer_stage_file(self, snap, want):
        # Tear B's payload but keep its header, whose stages_sha256 still
        # names the stage file on disk.
        tear(snap)
        loaded = restart(snap, RUNG_PREVIOUS)
        assert answers(loaded) == want["A"]
        assert loaded.pipeline is None

    def test_missing_stage_file(self, snap, want):
        stage_sidecar_path(snap).unlink()
        loaded = restart(snap)
        assert answers(loaded) == want["B"]
        assert loaded.pipeline is None

    def test_stage_file_with_a_valid_json_edit(self, snap, want):
        path = stage_sidecar_path(snap)
        data = json.loads(path.read_bytes())
        data["texts"].append(["h.mj", SMALL_CORPUS])
        path.write_bytes(json.dumps(data, separators=(",", ":")).encode("utf-8"))
        assert fresh_answers(TEXTS_B + [("h.mj", SMALL_CORPUS)]) != want["B"]
        loaded = restart(snap)
        assert answers(loaded) == want["B"]
        assert loaded.pipeline is None

    def test_v4_snapshot_with_a_v2_sidecar(self, snap, want):
        manifest = SnapshotStore(snap).load().manifest
        edit_header(snap, LAYOUTS["v4"])
        # The schema-2 sidecar envelope: a header line bound to the
        # snapshot's payload digest, then the stage JSON.
        path = stage_sidecar_path(snap)
        payload = path.read_bytes()
        envelope = {
            "format": "prospector-stage-sidecar",
            "schema_version": 2,
            "payload_sha256": payload_digest(payload),
            "payload_bytes": len(payload),
            "snapshot_sha256": manifest.payload_sha256,
        }
        path.write_bytes(json.dumps(envelope).encode("utf-8") + b"\n" + payload)
        # The v4 file is refused; .prev (A) serves, and the sidecar
        # binds to neither generation.
        loaded = restart(snap, RUNG_PREVIOUS)
        assert "schema_version 4" in loaded.store_diagnostics.faults[0].error
        assert loaded.pipeline is None
        assert answers(loaded) == want["A"]

    def test_only_the_loaded_manifest_binds(self, snap):
        # Whatever the route, an adopted stage file hashes to the
        # manifest of the generation that served.
        for rung, tear in ((RUNG_CURRENT, False), (RUNG_PREVIOUS, True)):
            if tear:
                raw = snap.read_bytes()
                snap.write_bytes(raw[: len(raw) - 7])
            loaded = restart(snap, rung)
            which = "current" if rung == RUNG_CURRENT else "previous"
            manifest = SnapshotStore(snap).load(which).manifest
            digest = payload_digest(stage_sidecar_path(snap).read_bytes())
            assert (loaded.pipeline is not None) == (digest == manifest.stages_sha256)

    def test_rebuild_rung_serves_the_instance_it_built(self, snap, want):
        tear_both(snap)
        loaded = restart(snap, RUNG_REBUILD, rebuild=lambda: fresh_build(TEXTS_B))
        assert answers(loaded) == want["B"]
        # The rebuilt instance carries its pipeline, so it updates like
        # a fresh build does.
        stats = loaded.update_corpus(upserts=[("h.mj", SMALL_CORPUS)])
        assert stats.files_remined == ("h.mj",)
        assert answers(loaded) == fresh_answers(TEXTS_B + [("h.mj", SMALL_CORPUS)])


class TestRepairRoutes:
    """A repaired snapshot restarts like a fresh build, whichever rung
    the repair loaded from."""

    def test_repair_from_the_current_rung(self, snap, want):
        def edit_a_verdict(header):
            pair = header["analysis"]["pairs"][0]
            pair["verdict"] = "inviable" if pair["verdict"] != "inviable" else "plausible"

        edit_header(snap, edit_a_verdict)
        repaired = repair_snapshot(snap)
        assert repaired.store_diagnostics.rung_used == RUNG_CURRENT
        assert [f.stage for f in repaired.store_diagnostics.faults] == [STAGE_ANALYSIS]
        assert answers(repaired) == want["B"]
        loaded = restart(snap)
        assert loaded.pipeline is not None
        assert answers(loaded) == want["B"]

    def test_repair_from_the_previous_rung(self, snap, want):
        tear(snap)
        repaired = repair_snapshot(snap)
        assert repaired.store_diagnostics.rung_used == RUNG_PREVIOUS
        assert answers(repaired) == want["A"]
        loaded = restart(snap)
        assert answers(loaded) == want["A"]
        # The stage file on disk is B's, which the rewrite does not bind.
        assert loaded.pipeline is None

    def test_repair_from_the_rebuild_rung(self, snap, want):
        tear_both(snap)
        repaired = repair_snapshot(snap, rebuild=lambda: fresh_build(TEXTS_B))
        assert repaired.store_diagnostics.rung_used == RUNG_REBUILD
        assert answers(repaired) == want["B"]
        loaded = restart(snap)
        assert loaded.pipeline is not None
        assert loaded.pipeline.last_stats.files_remined == loaded_sources(loaded)
        assert answers(loaded) == want["B"]
        stats = loaded.update_corpus(upserts=[("h.mj", SMALL_CORPUS)])
        assert stats.files_remined == ("h.mj",)
        assert answers(loaded) == fresh_answers(TEXTS_B + [("h.mj", SMALL_CORPUS)])


def stale_record(source, text):
    """A mine record in the form older builds saved in the stage file:
    it claims ``source`` mines nothing and records no dependency a check
    could find stale, as one saved by an extractor that mined
    differently would."""
    return {
        "source": source,
        "fingerprint": fingerprint_text(text),
        "examples": [],
        "faults": [],
        "decl_deps": {},
        "site_deps": {},
        "type_deps": {},
    }


def with_stale_record(snap, source, text):
    """Rewrite the stage file in the older form, with a stale record for
    ``source`` mined under the default extraction config, and re-bind
    the manifest's ``stages_sha256`` to it."""
    path = stage_sidecar_path(snap)
    data = json.loads(path.read_bytes())
    data["records"] = [stale_record(source, text)]
    data["extraction_config"] = asdict(ExtractionConfig())
    data["min_precast_steps"] = 1
    digest = save_stage_sidecar(snap, data)
    edit_header(snap, lambda header: header["manifest"].update(stages_sha256=digest))


def batch_answers(prospector, queries):
    return [
        [(s.jungloid.render_expression("x"), str(s.verdict)) for s in outcome.results]
        for outcome in prospector.query_batch(queries)
    ]


class TestStageFileHoldsTheCorpus:
    """A stage file gives a restart its texts; anything derived that an
    older build saved in it is ignored."""

    def test_a_restarted_pipeline_matches_a_fresh_build(self, snap):
        loaded = restart(snap)
        assert_matches_fresh(load_api_text(SMALL_API), loaded.pipeline, TEXTS_B)

    def test_an_older_stage_file_is_adopted_and_its_records_ignored(self, snap, want):
        with_stale_record(snap, "b.mj", VERSIONS["b.mj"][0])
        loaded = restart(snap)
        assert loaded.store_diagnostics.ok
        assert loaded.pipeline is not None
        assert loaded.pipeline.last_stats.files_remined == loaded_sources(loaded)
        assert loaded.pipeline.records["b.mj"].examples  # mined, not the stale record
        assert answers(loaded) == want["B"]

    def test_a_stale_record_in_the_bundled_stage_file_is_not_served(
        self, tmp_path, standard_prospector
    ):
        snap = tmp_path / "g.psnap"
        standard_prospector.save_snapshot(snap)
        with_stale_record(snap, "gef_canvas.mj", dict(corpus_texts())["gef_canvas.mj"])
        loaded = restart(snap)
        assert loaded.store_diagnostics.ok
        assert loaded.pipeline is not None
        assert loaded.pipeline.last_stats.files_remined == loaded_sources(loaded)
        queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS]
        assert len(queries) == 20
        want = ranked_answers(standard_prospector, queries)
        assert ranked_answers(loaded, queries) == want
        assert batch_answers(loaded, queries) == batch_answers(standard_prospector, queries) == want


@pytest.mark.parametrize("layout", ["bundle", "bundle-pretty", "v2", "v3", "v4", "v6"])
class TestRefusedLayouts:
    """A snapshot is schema 5 or a fault of its rung: the ladder serves
    ``.prev`` when it is sound, else the rebuild rung."""

    def test_load_and_verify_refuse_it(self, snap, layout):
        refuse(snap, layout)
        store = SnapshotStore(snap)
        error = SnapshotCorruptError if layout == "bundle-pretty" else SnapshotFormatError
        with pytest.raises(error):
            store.load()
        diagnostics = verify_snapshot(store)
        assert [(f.rung, f.stage) for f in diagnostics.faults] == [
            (RUNG_CURRENT, STAGE_VERIFY)
        ]
        assert diagnostics.rung_used is None

    def test_previous_generation_serves(self, snap, want, layout):
        refuse(snap, layout)
        loaded = restart(snap, RUNG_PREVIOUS)
        assert answers(loaded) == want["A"]

    def test_rebuild_rung_serves_when_both_are_refused(self, snap, want, layout):
        refuse(snap, layout)
        refuse(snap.with_name(snap.name + PREVIOUS_SUFFIX), layout)
        loaded = restart(snap, RUNG_REBUILD, rebuild=lambda: fresh_build(TEXTS_B))
        assert [f.rung for f in loaded.store_diagnostics.faults] == [
            RUNG_CURRENT,
            RUNG_PREVIOUS,
        ]
        assert answers(loaded) == want["B"]
