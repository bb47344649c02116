"""Tests for the Section-5 performance measurement helpers."""

from repro.eval import (
    measure_build_memory,
    measure_bundle,
    measure_load,
    measure_queries,
    run_perf,
)


class TestMeasurements:
    def test_bundle_measures_real_bytes(self, small_prospector):
        text, size = measure_bundle(small_prospector)
        assert size == len(text.encode("utf-8"))
        assert size > 500

    def test_load_time_positive(self, small_prospector):
        text, _ = measure_bundle(small_prospector)
        assert measure_load(text, repeats=1) > 0

    def test_build_memory(self):
        peak = measure_build_memory(lambda: [0] * 100000)
        assert peak > 100000 * 4

    def test_measure_queries_one_per_problem(self, standard_prospector):
        times = measure_queries(standard_prospector)
        assert len(times) == 20
        assert all(t >= 0 for t in times)


class TestPerfReport:
    def test_full_report(self, small_prospector):
        from repro.eval.problems import Table1Problem
        from repro.eval.oracle import SolutionOracle

        problems = [
            Table1Problem(
                1,
                "toy",
                "test",
                "demo.io.InputStream",
                "demo.io.BufferedReader",
                0.1,
                1,
                SolutionOracle.none(),
            )
        ]
        report = run_perf(small_prospector, lambda: None, problems)
        assert report.bundle_bytes > 0
        assert report.load_seconds > 0
        assert len(report.query_seconds) == 1
        assert 0 <= report.fraction_under(10.0) <= 1
        assert "load" in report.format_report()

    def test_fraction_under_empty(self):
        from repro.eval import PerfReport

        report = PerfReport()
        assert report.fraction_under(1.0) == 0.0
        assert report.mean_query_seconds == 0.0
        assert report.max_query_seconds == 0.0


class TestPercentile:
    def test_nearest_rank(self):
        from repro.eval import percentile

        samples = [0.1, 0.2, 0.3, 0.4]
        assert percentile(samples, 50) == 0.2
        assert percentile(samples, 95) == 0.4
        assert percentile(samples, 100) == 0.4
        assert percentile(samples, 0) == 0.1

    def test_empty_is_zero(self):
        from repro.eval import percentile

        assert percentile([], 50) == 0.0

    def test_order_independent(self):
        from repro.eval import percentile

        assert percentile([3.0, 1.0, 2.0], 50) == 2.0


class TestStressGraph:
    """The high-fanout differential: kernel against the oracle."""

    def test_shape_scales_with_fan_out(self):
        from repro.typesystem import named

        from .search_oracle import build_stress_graph, enumerate_paths

        fan = 4
        registry, graph = build_stress_graph(fan_out=fan)
        # Source, Target, java.lang.String, void, fan mids/leaves/deads.
        assert graph.node_count() == 4 + 3 * fan
        paths = enumerate_paths(
            graph, named("stress.Source"), named("stress.Target"), max_cost=4
        )
        assert sum(1 for _ in paths) == fan * fan

    def test_kernel_agrees_on_stress_graph(self):
        from repro.search import GraphSearch
        from repro.typesystem import named

        from .search_oracle import OracleSearch, build_stress_graph

        registry, graph = build_stress_graph(fan_out=3)
        src, dst = named("stress.Source"), named("stress.Target")
        texts = lambda engine: [
            j.render_expression("x") for j in engine.solve(src, dst)
        ]
        assert texts(OracleSearch(graph)) == texts(GraphSearch(graph))
        assert len(texts(GraphSearch(graph))) == 9
