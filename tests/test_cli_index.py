"""Tests for the snapshot CLI: index build/verify/repair, --snapshot
fast-start, dump-bundle -o, and malformed-bundle exit codes."""

import json

import pytest

from repro.cli import main
from repro.robustness import corrupt_file, flip_byte, truncate_bytes

#: A tiny API + corpus so CLI round-trips stay fast.
MINI_API = (
    "package java.lang; public class String {}\n"
    "package z; public class A { public Object get(); } public class B {}\n"
)
MINI_CORPUS = (
    "package c; import z.A; import z.B;\n"
    "class K { B f(A a) { return (B) a.get(); } }\n"
)


@pytest.fixture()
def data_files(tmp_path):
    api = tmp_path / "mini.api"
    api.write_text(MINI_API)
    corpus = tmp_path / "client.mj"
    corpus.write_text(MINI_CORPUS)
    return api, corpus


def _build(tmp_path, api, corpus):
    snap = tmp_path / "graph.psnap"
    code = main(
        ["index", "build", "-o", str(snap), "--api", str(api), "--corpus", str(corpus)]
    )
    assert code == 0
    return snap


class TestIndexBuild:
    def test_build_writes_verifiable_snapshot(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        out = capsys.readouterr().out
        assert "wrote snapshot" in out
        assert snap.exists()
        assert main(["index", "verify", str(snap)]) == 0
        assert "store ok" in capsys.readouterr().out

    def test_build_rotates_previous(self, tmp_path, data_files):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        _build(tmp_path, api, corpus)
        assert snap.with_name(snap.name + ".prev").exists()


class TestIndexVerify:
    def test_verify_damaged_snapshot_exits_2(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        corrupt_file(snap, lambda b: truncate_bytes(b, len(b) // 2))
        code = main(["index", "verify", str(snap)])
        captured = capsys.readouterr()
        assert code == 2
        assert "snapshot damaged" in captured.err

    def test_verify_missing_file_exits_2(self, tmp_path):
        assert main(["index", "verify", str(tmp_path / "nope.psnap")]) == 2

    def test_verify_reports_previous_generation(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        _build(tmp_path, api, corpus)
        assert main(["index", "verify", str(snap)]) == 0
        assert "previous generation" in capsys.readouterr().out


class TestIndexRepair:
    def test_repair_sound_snapshot_is_noop(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        assert main(["index", "repair", str(snap)]) == 0
        assert "already sound" in capsys.readouterr().out

    def test_repair_from_previous_generation(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        _build(tmp_path, api, corpus)
        corrupt_file(snap, lambda b: flip_byte(b, len(b) // 2))
        code = main(
            ["index", "repair", str(snap), "--api", str(api), "--corpus", str(corpus)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "rewritten from previous-generation" in captured.out
        assert main(["index", "verify", str(snap)]) == 0

    @staticmethod
    def _edit_a_verdict(snap):
        head, _, payload = snap.read_bytes().partition(b"\n")
        header = json.loads(head)
        pair = header["analysis"]["pairs"][0]
        pair["verdict"] = "plausible" if pair["verdict"] != "plausible" else "inviable"
        snap.write_bytes(json.dumps(header).encode() + b"\n" + payload)

    def test_repair_names_a_dropped_analysis_section(self, tmp_path, data_files, capsys):
        # The adopted stage file's pipeline has the verdicts, so the
        # rewrite restores the section the load refused.
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        fresh = json.loads(snap.read_bytes().partition(b"\n")[0])["analysis"]
        self._edit_a_verdict(snap)
        capsys.readouterr()
        assert main(["index", "repair", str(snap)]) == 0
        captured = capsys.readouterr()
        assert "without its analysis section" in captured.err
        assert "recovered via" not in captured.err
        assert (
            f"{snap}: rewritten with its analysis section restored from the stage file"
            in captured.out
        )
        assert main(["index", "verify", str(snap)]) == 0
        assert json.loads(snap.read_bytes().partition(b"\n")[0])["analysis"] == fresh

    def test_repair_without_a_stage_file_drops_the_analysis_section(
        self, tmp_path, data_files, capsys
    ):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        snap.with_name(snap.name + ".stages").unlink()
        self._edit_a_verdict(snap)
        capsys.readouterr()
        assert main(["index", "repair", str(snap)]) == 0
        captured = capsys.readouterr()
        assert f"{snap}: rewritten without its analysis section" in captured.out
        assert main(["index", "verify", str(snap)]) == 0
        assert "analysis" not in json.loads(snap.read_bytes().partition(b"\n")[0])

    def test_repair_by_corpus_rebuild(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        corrupt_file(snap, lambda b: truncate_bytes(b, 10))
        code = main(
            ["index", "repair", str(snap), "--api", str(api), "--corpus", str(corpus)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "rewritten from rebuild-from-corpus" in captured.out
        assert main(["index", "verify", str(snap)]) == 0
        # The rewrite saved the rebuilt instance's stage file too, so the
        # next update is incremental.
        capsys.readouterr()
        corpus.write_text(MINI_CORPUS + "// touched\n")
        code = main(
            [
                "index", "update", str(snap), "--set", str(corpus),
                "--api", str(api), "--corpus", str(corpus),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "rebuilding" not in captured.err
        assert "re-mined 1 file(s)" in captured.out


class TestIndexUpdate:
    def _update(self, snap, api, corpus, capsys):
        code = main(
            [
                "index", "update", str(snap),
                "--set", str(corpus),
                "--api", str(api), "--corpus", str(corpus),
            ]
        )
        assert code == 0
        return capsys.readouterr()

    def test_v4_snapshot_rebuilds_once_then_updates_incrementally(
        self, tmp_path, data_files, capsys
    ):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        head, _, payload = snap.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["schema_version"] = 4
        header["manifest"].pop("stages_sha256")
        snap.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        capsys.readouterr()
        corpus.write_text(MINI_CORPUS + "// touched\n")
        err = self._update(snap, api, corpus, capsys).err
        assert "schema_version 4 is not supported" in err
        assert "recovered via rebuild-from-corpus" in err
        assert json.loads(snap.read_bytes().partition(b"\n")[0])["schema_version"] == 5
        corpus.write_text(MINI_CORPUS)
        captured = self._update(snap, api, corpus, capsys)
        assert "rebuilding" not in captured.err
        assert "re-mined 1 file(s)" in captured.out


    def test_lenient_update_reports_what_it_quarantined(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = tmp_path / "graph.psnap"
        data = ["--api", str(api), "--corpus", str(corpus), "--lenient-corpus"]
        assert main(["index", "build", "-o", str(snap), *data]) == 0
        bad = tmp_path / "bad.mj"
        bad.write_text("package c; class Bad { Nowhere f() { return null; } }\n")
        capsys.readouterr()
        code = main(["index", "update", str(snap), "--set", str(bad), *data])
        captured = capsys.readouterr()
        assert code == 0
        assert "corpus degraded: 1 file(s) loaded, 1 quarantined" in captured.err
        assert "unknown type 'Nowhere'" in captured.err

    def test_torn_snapshot_without_previous_builds_the_corpus_once(
        self, tmp_path, data_files, capsys, monkeypatch
    ):
        from repro.graph import JungloidGraph

        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        corrupt_file(snap, lambda b: truncate_bytes(b, len(b) // 2))
        builds = []
        original = JungloidGraph.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(JungloidGraph, "build", classmethod(counting))
        capsys.readouterr()
        captured = self._update(snap, api, corpus, capsys)
        # The rebuild rung's instance takes the update: no second build.
        assert "rebuilding from corpus" not in captured.err
        # The damage is reported, as a query over the snapshot reports it.
        assert "store degraded: recovered via rebuild-from-corpus" in captured.err
        assert "no content changes" in captured.out
        assert len(builds) == 1
        assert main(["index", "verify", str(snap)]) == 0


class TestQuerySnapshot:
    def test_fast_start_answers(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        capsys.readouterr()
        code = main(["query", "z.A", "z.B", "--snapshot", str(snap)])
        captured = capsys.readouterr()
        assert code == 0
        assert "(z.B) x.get()" in captured.out
        assert captured.err == ""  # clean load: no degradation notice

    def test_damaged_snapshot_recovers_and_reports_rung(
        self, tmp_path, data_files, capsys
    ):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        corrupt_file(snap, lambda b: flip_byte(b, len(b) - 5))
        capsys.readouterr()
        code = main(
            [
                "query", "z.A", "z.B",
                "--snapshot", str(snap),
                "--api", str(api), "--corpus", str(corpus),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "(z.B) x.get()" in captured.out
        assert "recovered via rebuild-from-corpus" in captured.err

    def test_complete_supports_snapshot(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        snap = _build(tmp_path, api, corpus)
        capsys.readouterr()
        code = main(
            ["complete", "z.B", "--visible", "a:z.A", "--snapshot", str(snap)]
        )
        assert code == 0
        assert "(z.B) a.get()" in capsys.readouterr().out


class TestDumpBundleOutput:
    def test_output_flag_writes_file(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        out_file = tmp_path / "bundle.json"
        code = main(
            ["dump-bundle", "-o", str(out_file), "--api", str(api), "--corpus", str(corpus)]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["format"] == "prospector-bundle-v1"
        assert f"wrote" in capsys.readouterr().out

    def test_default_is_still_stdout(self, data_files, capsys):
        api, corpus = data_files
        code = main(["dump-bundle", "--api", str(api), "--corpus", str(corpus)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["format"] == "prospector-bundle-v1"

    def test_both_path_and_output_rejected(self, tmp_path, data_files, capsys):
        api, corpus = data_files
        code = main(
            [
                "dump-bundle", str(tmp_path / "a.json"),
                "-o", str(tmp_path / "b.json"),
                "--api", str(api),
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err


class TestMalformedBundleExitCode:
    def test_malformed_bundle_with_no_fallback_is_one_line_exit_2(
        self, tmp_path, capsys
    ):
        # Malformed bundle AND an unusable rebuild source: every rung
        # fails, so the user gets exactly one error line and exit 2.
        snap = tmp_path / "broken.json"
        snap.write_text('{"format": "prospector-bundle-v1", "registry": {')
        code = main(
            [
                "query", "z.A", "z.B",
                "--snapshot", str(snap),
                "--api", str(tmp_path / "missing.api"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_recovery_ladder_rescues_malformed_bundle(
        self, tmp_path, data_files, capsys
    ):
        # With a usable corpus the same malformed bundle degrades
        # gracefully instead of erroring: the rebuild rung answers.
        api, corpus = data_files
        snap = tmp_path / "broken.json"
        snap.write_text('{"format": "prospector-bundle-v1", "registry": {')
        code = main(
            [
                "query", "z.A", "z.B",
                "--snapshot", str(snap),
                "--api", str(api), "--corpus", str(corpus),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "recovered via rebuild-from-corpus" in captured.err

    def test_missing_key_names_the_key(self, tmp_path):
        from repro.graph import BundleFormatError, bundle_from_json

        with pytest.raises(BundleFormatError) as exc_info:
            bundle_from_json('{"format": "prospector-bundle-v1", "registry": {"format": "prospector-registry-v1", "types": []}}')
        assert exc_info.value.key == "mined"
        assert "mined" in str(exc_info.value)

    def test_json_offset_is_reported(self):
        from repro.graph import BundleFormatError, bundle_from_json

        with pytest.raises(BundleFormatError) as exc_info:
            bundle_from_json('{"format": ')
        assert exc_info.value.offset is not None
        assert "offset" in str(exc_info.value)
