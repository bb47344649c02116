"""Horizon-bounded distance maps in the engine: cache coverage and budgets.

A query's distance map stops at ``min(max m + extra_cost,
absolute_max_cost)`` over its sources. These tests pin the rules that keep
that invisible in the answers: a cached map serves only sources it
covers, batch groups bound their map by the union of their sources,
readers outside the ladder get a complete map, and a budgeted ladder
still reaches a source past the cap.
"""

from repro.apispec import load_api_text
from repro.graph import SignatureGraph
from repro.robustness import (
    Deadline,
    ManualClock,
    REASON_DEADLINE,
    RUNG_FULL_WINDOW,
    RUNG_SHORTEST_PATH,
    RUNG_ZERO_EXTRA,
)
from repro.search import GraphSearch, SearchConfig
from repro.typesystem import named

from .search_oracle import OracleSearch

#: A chain c.T0 -> c.T1 -> ... -> c.T6, one unit-cost call per link.
CHAIN_API = "package java.lang;\npublic class String {}\npackage c;\n" + "".join(
    f"public class T{i} {{ public T{i + 1} next(); }}\n" for i in range(6)
) + "public class T6 {}\n"

FULL_CHAIN = "x" + ".next()" * 6


def chain(config=SearchConfig()):
    graph = SignatureGraph.from_registry(load_api_text(CHAIN_API))
    return graph, GraphSearch(graph, config=config)


def T(i):
    return named(f"c.T{i}")


def texts(results):
    return [r.jungloid.render_expression("x") for r in results]


class TestSingleServingCoverage:
    def test_narrow_map_then_wider_source_recomputes(self):
        graph, search = chain()
        assert texts(search.solve_multi([T(5)], T(6))) == ["x.next()"]
        narrow = search._distances(T(6), [T(5)])
        assert narrow.horizon == 2  # m = 1, plus extra_cost 1
        assert narrow.get(T(0)) is None  # beyond the horizon, not unreachable
        assert search.distance_computes == 1

        assert texts(search.solve_multi([T(0)], T(6))) == [FULL_CHAIN]
        assert search.distance_computes == 2
        wide = search._distances(T(6), [T(0)])
        assert wide.horizon == 7 and wide[T(0)] == 6

        # The wider map replaced the narrow one and covers T5 as well.
        assert texts(search.solve_multi([T(5)], T(6))) == ["x.next()"]
        assert search.distance_computes == 2

    def test_answers_equal_a_fresh_engine_in_any_order(self):
        _, warm = chain()
        for i in (5, 3, 0, 4, 1):
            _, fresh = chain()
            assert texts(warm.solve_multi([T(i)], T(6))) == texts(
                fresh.solve_multi([T(i)], T(6))
            )

    def test_complete_reader_replaces_a_bounded_map(self):
        _, search = chain(SearchConfig(absolute_max_cost=3))
        assert search.solve_multi([T(0)], T(6)) == []  # m = 6 > cap
        assert search._distances(T(6), [T(0)]).horizon == 3
        # shortest_cost reads past the cap, so it needs the complete map.
        assert search.shortest_cost(T(0), T(6)) == 6
        assert search._distances(T(6)).horizon is None
        assert search.distance_computes == 2

    def test_map_at_the_cap_covers_every_source(self):
        _, search = chain(SearchConfig(absolute_max_cost=3))
        search.solve_multi([T(0)], T(6))
        for i in range(6):
            assert texts(search.solve_multi([T(i)], T(6))) == texts(
                OracleSearch(search.graph, config=search.config).solve_multi([T(i)], T(6))
            )
        assert search.distance_computes == 1


class TestBatchServingCoverage:
    def test_narrow_cached_map_then_wider_batch_recomputes(self):
        _, search = chain()
        first = search.solve_batch([(T(5), T(6))])
        assert texts(first[0].results) == ["x.next()"]
        assert search.distance_computes == 1
        second = search.solve_batch([(T(4), T(6)), (T(0), T(6))])
        assert [texts(o.results) for o in second] == [
            ["x.next().next()"],
            [FULL_CHAIN],
        ]
        assert search.distance_computes == 2

    def test_group_map_covers_the_union_of_sources(self):
        _, search = chain()
        outcomes = search.solve_batch([(T(5), T(6)), (T(0), T(6)), (T(3), T(6))])
        assert search.distance_computes == 1  # one map for the whole group
        assert search._distances(T(6), [T(0)]).horizon == 7
        assert search.distance_computes == 1
        for outcome, i in zip(outcomes, (5, 0, 3)):
            _, fresh = chain()
            assert texts(outcome.results) == texts(fresh.solve_multi([T(i)], T(6)))

    def test_batch_after_single_serving_equals_single_serving(self):
        _, search = chain()
        singles = [texts(search.solve_multi([T(i)], T(6))) for i in (5, 2)]
        batch = search.solve_batch([(T(5), T(6)), (T(2), T(6)), (T(0), T(6))])
        assert [texts(o.results) for o in batch[:2]] == singles
        assert texts(batch[2].results) == [FULL_CHAIN]


class TestBudgetPastTheCap:
    """An expired deadline on ``T0 -> T6`` with ``absolute_max_cost=3``
    (so ``m = 6`` lies past the cap) falls to the rung-3 shortest path,
    which ignores the cap; a horizon-bounded map must not lose it."""

    def _expired(self):
        return Deadline.after(1.0, ManualClock(tick=0.010))

    def test_expired_deadline_still_reaches_rung_three(self):
        config = SearchConfig(absolute_max_cost=3)
        _, search = chain(config)
        outcome = search.solve_multi_outcome([T(0)], T(6), deadline=self._expired())
        assert texts(outcome.results) == [FULL_CHAIN]
        assert outcome.degraded
        assert outcome.rungs == (RUNG_FULL_WINDOW, RUNG_ZERO_EXTRA, RUNG_SHORTEST_PATH)
        assert [(r.code, r.rung) for r in outcome.reasons] == [
            (REASON_DEADLINE, RUNG_FULL_WINDOW),
            (REASON_DEADLINE, RUNG_ZERO_EXTRA),
        ]

    def test_same_outcome_as_the_oracle_after_a_bounded_map_is_cached(self):
        config = SearchConfig(absolute_max_cost=3)
        graph, search = chain(config)
        search.solve_multi([T(0)], T(6))  # caches a map bounded at the cap
        got = search.solve_multi_outcome([T(0)], T(6), deadline=self._expired())
        want = OracleSearch(graph, config=config).solve_multi_outcome(
            [T(0)], T(6), deadline=self._expired()
        )
        assert texts(got.results) == texts(want.results)
        assert got.reasons == want.reasons
        assert got.rungs == want.rungs

    def test_batch_budget_matches_single(self):
        config = SearchConfig(absolute_max_cost=3)
        _, single = chain(config)
        _, batch = chain(config)
        one = single.solve_multi_outcome([T(0)], T(6), deadline=self._expired())
        [many] = batch.solve_batch([(T(0), T(6))], deadline=self._expired())
        assert texts(one.results) == texts(many.results)
        assert one.reasons == many.reasons and one.rungs == many.rungs

    def test_unexpired_budget_past_the_cap_answers_nothing(self):
        config = SearchConfig(absolute_max_cost=3, time_budget_ms=60_000.0)
        _, search = chain(config)
        outcome = search.solve_multi_outcome([T(0)], T(6))
        assert outcome.results == () and not outcome.degraded
