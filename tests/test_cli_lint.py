"""Exit-code contract for ``repro lint`` (and the analysis CLI surface).

0 = clean at the chosen threshold, 1 = findings, 2 = usage/corpus error.
"""

import json

import pytest

from repro.cli import main

CLEAN = """
package c;
class Quiet {
  java.lang.String greet(java.lang.String s) {
    return s;
  }
}
"""

INFO_ONLY = """
package c;
class Sloppy {
  void run(java.lang.String s) {
    java.lang.String unused = s;
  }
}
"""

INVIABLE = """
package c;
class BadFlow {
  void run() {
    Object o = new org.eclipse.swt.widgets.Display();
    org.eclipse.core.resources.IResource r =
        (org.eclipse.core.resources.IResource) o;
    r.getName();
  }
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLintExitCodes:
    def test_bundled_corpus_is_clean_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_clean_file_exit_zero(self, tmp_path, capsys):
        code = main(["lint", "--corpus", write(tmp_path, "clean.mj", CLEAN)])
        assert code == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        code = main(["lint", "--corpus", write(tmp_path, "sloppy.mj", INFO_ONLY)])
        out = capsys.readouterr().out
        assert code == 1
        assert "JL301" in out

    def test_fail_on_threshold_filters_info(self, tmp_path, capsys):
        corpus = write(tmp_path, "sloppy.mj", INFO_ONLY)
        assert main(["lint", "--corpus", corpus, "--fail-on", "error"]) == 0
        assert main(["lint", "--corpus", corpus, "--fail-on", "info"]) == 1

    def test_inviable_cast_fails_error_gate(self, tmp_path, capsys):
        corpus = write(tmp_path, "badflow.mj", INVIABLE)
        code = main(["lint", "--corpus", corpus, "--fail-on", "error"])
        out = capsys.readouterr().out
        assert code == 1
        assert "JL102" in out
        assert "badflow.mj:" in out  # file:line:column position

    def test_missing_corpus_file_exit_two(self, tmp_path, capsys):
        code = main(["lint", "--corpus", str(tmp_path / "nope.mj")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_no_corpus_exit_two(self, capsys):
        assert main(["lint", "--no-corpus"]) == 2

    def test_bad_fail_on_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--fail-on", "fatal"])
        assert excinfo.value.code == 2

    def test_graph_checks_opt_in(self, capsys):
        assert main(["lint", "--graph"]) == 0


class TestQueryVerify:
    def test_verify_prints_verdicts(self, capsys):
        code = main(
            ["query", "ISelection", "ICompilationUnit", "--verify", "--top", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[viability:" in out

    def test_verify_shows_cast_findings(self, capsys):
        code = main(["query", "ISelection", "IFile", "--verify", "--top", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[viability: justified]" in out


class TestBenchAnalysis:
    def test_bench_analysis_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_analysis.json"
        code = main(
            [
                "bench-analysis",
                "-o",
                str(out_path),
                "--min-agreement",
                "0.95",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "soundness: ok" in out
        data = json.loads(out_path.read_text())
        assert data["soundness_ok"] is True
        assert data["top_ranked"]["agreement_rate"] >= 0.95

    def test_bench_analysis_needs_corpus(self, capsys):
        assert main(["bench-analysis", "--no-corpus"]) == 2


class TestLintGraphLoadsOnce:
    def test_graph_lint_parses_and_resolves_each_file_once(self, monkeypatch, capsys):
        import repro.corpus.loader as loader
        import repro.pipeline.pipeline as pipeline
        from repro.minijava.resolver import Resolver

        parsed, resolved = [], []
        for module in (loader, pipeline):
            parse = module.parse_minijava

            def counting(text, source, parse=parse):
                parsed.append(source)
                return parse(text, source)

            monkeypatch.setattr(module, "parse_minijava", counting)
        bodies = Resolver._resolve_bodies

        def resolving(self, unit):
            resolved.append(id(unit))
            return bodies(self, unit)

        monkeypatch.setattr(Resolver, "_resolve_bodies", resolving)
        assert main(["lint", "--graph"]) == 0
        out = capsys.readouterr().out
        assert sorted(parsed) == sorted(set(parsed)) and len(parsed) == 12
        assert len(resolved) == len(set(resolved)) == 12
        assert out == "linted 12 source(s): 0 finding(s)\n"

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The source of every ``parse_minijava`` call the loader and the
        pipeline make."""
        import repro.corpus.loader as loader
        import repro.pipeline.pipeline as pipeline

        sources = []
        for module in (loader, pipeline):
            parse = module.parse_minijava

            def counting(text, source, parse=parse):
                sources.append(source)
                return parse(text, source)

            monkeypatch.setattr(module, "parse_minijava", counting)
        return sources

    def test_graph_lint_parses_a_broken_file_once(self, tmp_path, parsed, capsys):
        # The graph's pipeline adopts the lint load's parse faults too.
        broken = write(tmp_path, "broken.mj", "package c; class {")
        ok = write(tmp_path, "ok.mj", CLEAN)
        main(["lint", "--graph", "--corpus", broken, "--corpus", ok])
        assert sorted(parsed) == sorted([broken, ok])

    def test_graph_lint_parses_an_unresolved_file_once(self, tmp_path, parsed, capsys):
        # ... and the ASTs of the files its resolve quarantined.
        unresolved = write(
            tmp_path, "unresolved.mj", "package c;\nclass Lost {\n  Nowhere gone;\n}\n"
        )
        ok = write(tmp_path, "ok.mj", CLEAN)
        assert main(["lint", "--graph", "--corpus", unresolved, "--corpus", ok]) == 1
        assert sorted(parsed) == sorted([unresolved, ok])
        assert "unknown type 'Nowhere'" in capsys.readouterr().out

    @pytest.mark.parametrize("files", [(), (("sloppy.mj", INFO_ONLY), ("bad.mj", INVIABLE))])
    def test_findings_equal_two_separate_loads(self, tmp_path, capsys, files):
        # What lint --graph printed when the graph had a load of its own.
        from repro.analysis import run_lint
        from repro.core import Prospector
        from repro.corpus import load_corpus_texts
        from repro.data import corpus_texts, standard_registry

        paths = [write(tmp_path, name, text) for name, text in files]
        texts = list(zip(paths, (text for _, text in files))) or list(corpus_texts())
        registry = standard_registry()
        graph_side = Prospector(registry, load_corpus_texts(registry, texts, lenient=True))
        want = run_lint(registry, texts, graph=graph_side.graph, verdicts=graph_side.verdicts)
        code = main(["lint", "--graph"] + [arg for path in paths for arg in ("--corpus", path)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [str(d) for d in want.diagnostics]
        assert code == (1 if want.diagnostics else 0)
        assert bool(files) == bool(want.diagnostics)
