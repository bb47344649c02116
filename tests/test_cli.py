"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestQuery:
    def test_query_prints_ranked_results(self, capsys):
        code = main(["query", "InputStream", "BufferedReader", "--top", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "#1  new java.io.BufferedReader(new java.io.InputStreamReader(x))" in out
        assert "#3" not in out

    def test_query_statements(self, capsys):
        code = main(
            [
                "query",
                "TableViewer",
                "Table",
                "--statements",
                "--input-var",
                "viewer",
                "--result-var",
                "table",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "viewer.getTable()" in out
        assert "org.eclipse.swt.widgets.Table table =" in out

    def test_query_no_results_exit_code(self, capsys):
        code = main(
            [
                "query",
                "org.eclipse.gef.editparts.AbstractGraphicalEditPart",
                "org.eclipse.draw2d.ConnectionLayer",
            ]
        )
        assert code == 1
        assert "no jungloids found" in capsys.readouterr().out

    def test_no_corpus_flag_disables_mining(self, capsys):
        code = main(
            [
                "query",
                "org.eclipse.gef.ui.parts.ScrollingGraphicalViewer",
                "org.eclipse.draw2d.FigureCanvas",
                "--no-corpus",
                "--top",
                "1",
            ]
        )
        out = capsys.readouterr().out
        # Without mining the cast route is gone; whatever is found (or not),
        # it must not contain a downcast.
        assert "(org.eclipse.draw2d.FigureCanvas)" not in out or code == 1


class TestComplete:
    def test_complete_with_visible(self, capsys):
        code = main(["complete", "Shell", "--visible", "e:KeyEvent", "--top", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "e.display.getActiveShell()" in out

    def test_complete_bad_visible_spec(self):
        with pytest.raises(SystemExit):
            main(["complete", "Shell", "--visible", "nocolon"])


class TestReports:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "paper-agreement 20/20" in out

    def test_mine(self, capsys):
        assert main(["mine"]) == 0
        out = capsys.readouterr().out
        assert "example jungloids" in out
        assert "unique suffixes" in out

    def test_mine_without_corpus(self, capsys):
        assert main(["mine", "--no-corpus"]) == 1

    def test_userstudy(self, capsys):
        assert main(["userstudy", "--seed", "3"]) == 0
        assert "average per-user speedup" in capsys.readouterr().out

    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "registry:" in out and "graph:" in out

    def test_informal(self, capsys):
        assert main(["informal"]) == 0
        out = capsys.readouterr().out
        assert "jungloid 9/16" in out


class TestDumpBundle:
    def test_dump_to_stdout(self, capsys):
        assert main(["dump-bundle", "-"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["format"] == "prospector-bundle-v1"

    def test_dump_to_file(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        assert main(["dump-bundle", str(path), "--pretty"]) == 0
        data = json.loads(path.read_text())
        assert data["registry"]["types"]


class TestCustomData:
    def test_custom_api_files(self, tmp_path, capsys):
        api = tmp_path / "mini.api"
        api.write_text(
            "package java.lang; public class String {}\n"
            "package z; public class A { public B toB(); } public class B {}\n"
        )
        code = main(["query", "z.A", "z.B", "--api", str(api)])
        assert code == 0
        assert "x.toB()" in capsys.readouterr().out

    def test_custom_corpus_file(self, tmp_path, capsys):
        api = tmp_path / "mini.api"
        api.write_text(
            "package java.lang; public class String {}\n"
            "package z; public class A { public Object get(); } public class B {}\n"
        )
        corpus = tmp_path / "client.mj"
        corpus.write_text(
            "package c; import z.A; import z.B;\n"
            "class K { B f(A a) { return (B) a.get(); } }\n"
        )
        code = main(
            ["query", "z.A", "z.B", "--api", str(api), "--corpus", str(corpus)]
        )
        assert code == 0
        assert "(z.B) x.get()" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_type_is_input_error(self, capsys):
        code = main(["query", "no.such.Type", "BufferedReader"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "no.such.Type" in captured.err

    def test_missing_api_file_is_input_error(self, capsys):
        code = main(["query", "A", "B", "--api", "/nonexistent/mini.api"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_missing_corpus_file_is_input_error(self, capsys):
        code = main(["query", "InputStream", "BufferedReader", "--corpus", "/nonexistent/client.mj"])
        captured = capsys.readouterr()
        assert code == 2
        assert "/nonexistent/client.mj" in captured.err

    def test_malformed_corpus_is_clean_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mj"
        bad.write_text("package c; class ??? {")
        code = main(["query", "InputStream", "BufferedReader", "--corpus", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_degraded_query_exits_3_with_answer(self, capsys):
        code = main(
            [
                "query",
                "InputStream",
                "BufferedReader",
                "--time-budget-ms",
                "0.0001",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "warning: degraded answer" in captured.err
        assert "#1  new java.io.BufferedReader(new java.io.InputStreamReader(x))" in captured.out

    def test_generous_budget_exits_0(self, capsys):
        code = main(
            ["query", "InputStream", "BufferedReader", "--time-budget-ms", "60000"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "#1" in captured.out


class TestLenientCorpusFlag:
    def _api(self, tmp_path):
        api = tmp_path / "mini.api"
        api.write_text(
            "package java.lang; public class String {}\n"
            "package z; public class A { public Object get(); } public class B {}\n"
        )
        return api

    def test_lenient_flag_quarantines_and_answers(self, tmp_path, capsys):
        api = self._api(tmp_path)
        good = tmp_path / "client.mj"
        good.write_text(
            "package c; import z.A; import z.B;\n"
            "class K { B f(A a) { return (B) a.get(); } }\n"
        )
        bad = tmp_path / "broken.mj"
        bad.write_text("package c; class ??? {")
        code = main(
            [
                "query",
                "z.A",
                "z.B",
                "--api",
                str(api),
                "--corpus",
                str(good),
                "--corpus",
                str(bad),
                "--lenient-corpus",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "(z.B) x.get()" in captured.out
        assert "corpus degraded" in captured.err
        assert "broken.mj" in captured.err

    def test_without_flag_same_corpus_aborts(self, tmp_path, capsys):
        api = self._api(tmp_path)
        bad = tmp_path / "broken.mj"
        bad.write_text("package c; class ??? {")
        code = main(["query", "z.A", "z.B", "--api", str(api), "--corpus", str(bad)])
        assert code == 2


class TestQueryBatch:
    def test_batch_file_serves_all_queries(self, capsys, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text(
            "# popular IO queries\n"
            "InputStream BufferedReader\n"
            "\n"
            "String StringReader  # trailing comment\n"
        )
        code = main(["query", "--batch", str(batch), "--top", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== InputStream -> BufferedReader" in out
        assert "== String -> StringReader" in out
        assert "new java.io.BufferedReader" in out

    def test_malformed_batch_line_is_input_error(self, capsys, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("InputStream\n")
        code = main(["query", "--batch", str(batch)])
        assert code == 2
        assert "expected 'T_IN T_OUT'" in capsys.readouterr().err

    def test_missing_positionals_without_batch(self, capsys):
        code = main(["query", "InputStream"])
        assert code == 2
        assert "--batch" in capsys.readouterr().err
