"""Tests for the static-vs-dynamic agreement report (BENCH_analysis)."""

import json
import statistics

import pytest

from repro import Prospector
from repro.data import standard_corpus
from repro.eval import run_analysis_eval, write_bench_analysis
from repro.eval.analysis import _write_bench_json


@pytest.fixture(scope="module")
def report(standard_prospector):
    return run_analysis_eval(standard_prospector)


class TestAgreement:
    def test_top_ranked_agreement_meets_threshold(self, report):
        assert report.top_ranked.total > 0
        assert report.top_ranked.agreement_rate >= 0.95

    def test_mined_examples_agreement_is_total(self, report):
        assert report.mined_examples.total > 0
        assert report.mined_examples.agreement_rate == 1.0

    def test_soundness_holds(self, report):
        assert report.soundness_ok
        assert report.top_ranked.soundness_violations == 0
        assert report.mined_examples.soundness_violations == 0

    def test_confusion_counts_cover_population(self, report):
        assert sum(report.top_ranked.confusion.values()) == report.top_ranked.total
        assert (
            sum(report.mined_examples.confusion.values())
            == report.mined_examples.total
        )


class TestCostMetrics:
    def test_analyze_overhead_under_ten_percent(self, standard_registry_and_corpus):
        # Acceptance criterion: verdict computation adds <10% to the
        # staged index build. The analyze stage takes about a
        # millisecond, so one build's ratio is mostly host noise: gate
        # the median over five fresh bundled builds.
        registry, _ = standard_registry_and_corpus
        ratios = []
        for _ in range(5):
            timings = Prospector(registry, standard_corpus(registry)).pipeline.last_stats.timings
            ratios.append(timings.analyze_ms / (timings.total_ms - timings.analyze_ms) * 100.0)
        assert statistics.median(ratios) < 10.0

    def test_witnessed_pairs_counted(self, report):
        assert report.witnessed_pairs > 0


class TestSerialization:
    def test_to_dict_shape(self, report):
        data = report.to_dict()
        assert data["soundness_ok"] is True
        assert data["top_ranked"]["agreement_rate"] >= 0.95
        assert data["mined_examples"]["total"] == report.mined_examples.total
        json.dumps(data)  # must be JSON-serializable

    def test_format_report_mentions_soundness(self, report):
        text = report.format_report()
        assert "soundness: ok" in text
        assert "agree" in text

    def test_write_bench_analysis_mirrors_to_root(self, report, tmp_path):
        out = tmp_path / "benchmarks" / "out"
        out.mkdir(parents=True)
        path = out / "BENCH_analysis.json"
        write_bench_analysis(report, path)
        assert json.loads(path.read_text())["soundness_ok"] is True
        mirror = tmp_path / "BENCH_analysis.json"
        assert mirror.exists()
        assert mirror.read_text() == path.read_text()

    def test_write_outside_canonical_layout_does_not_mirror(self, tmp_path):
        path = tmp_path / "somewhere.json"
        _write_bench_json(path, {"ok": True})
        assert json.loads(path.read_text()) == {"ok": True}
        assert list(tmp_path.iterdir()) == [path]
