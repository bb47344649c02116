"""Tests for example-jungloid generalization (the trie algorithm)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import chain_signature
from repro.jungloids import Jungloid, downcast, instance_call
from repro.minijava.ast import Position
from repro.mining import (
    ExampleJungloid,
    GeneralizedExample,
    IncrementalGeneralizer,
    generalize_examples,
    unique_suffixes,
)
from repro.typesystem import Method, named

A = named("g.A")
B = named("g.B")
H = named("g.H")  # hashtable-ish
T = named("g.T")
U = named("g.U")
OBJ = named("java.lang.Object")


def step(owner, name, returns):
    return instance_call(Method(owner, name, returns))[0]


GET_TARGETS = step(A, "getTargets", H)
GET_PROPS = step(A, "getProperties", H)
GET = step(H, "get", OBJ)
MAKE_A = step(B, "makeA", A)
OTHER_A = step(B, "otherA", A)
CAST_T = downcast(OBJ, T)
CAST_U = downcast(OBJ, U)


def example(*steps, tag="x.mj"):
    return ExampleJungloid(
        jungloid=Jungloid.from_iterable(steps),
        source=tag,
        method_name="m",
        cast_position=Position(1, 1),
    )


class TestShortestSuffix:
    def test_lone_example_keeps_one_precast_step(self):
        [g] = generalize_examples([example(MAKE_A, GET_TARGETS, GET, CAST_T)])
        assert chain_signature(g.suffix) == ("H.get", "cast T")
        assert g.trimmed_steps == 2

    def test_figure7_shared_suffix(self):
        gens = generalize_examples(
            [
                example(MAKE_A, GET_TARGETS, GET, CAST_T),
                example(OTHER_A, GET_TARGETS, GET, CAST_T),
                example(MAKE_A, GET_PROPS, GET, CAST_U),
            ]
        )
        target_suffixes = {
            chain_signature(g.suffix) for g in gens if g.suffix.output_type == T
        }
        # Conflict with the U cast forces retention through getTargets...
        assert target_suffixes == {("A.getTargets", "H.get", "cast T")}
        # ...and the U example keeps getProperties.
        u_suffixes = {chain_signature(g.suffix) for g in gens if g.suffix.output_type == U}
        assert u_suffixes == {("A.getProperties", "H.get", "cast U")}

    def test_identical_precast_different_casts_keep_everything(self):
        gens = generalize_examples(
            [
                example(MAKE_A, GET_TARGETS, GET, CAST_T),
                example(MAKE_A, GET_TARGETS, GET, CAST_U),
            ]
        )
        for g in gens:
            assert g.suffix.steps == g.example.jungloid.steps

    def test_same_cast_never_conflicts(self):
        gens = generalize_examples(
            [
                example(MAKE_A, GET_TARGETS, GET, CAST_T),
                example(OTHER_A, GET_PROPS, GET, CAST_T),
            ]
        )
        # Both end in T: the minimal one-step suffix suffices for both.
        for g in gens:
            assert chain_signature(g.suffix) == ("H.get", "cast T")

    def test_min_precast_steps_enforced(self):
        gens = generalize_examples(
            [example(MAKE_A, GET_TARGETS, GET, CAST_T)], min_precast_steps=2
        )
        assert chain_signature(gens[0].suffix) == ("A.getTargets", "H.get", "cast T")

    def test_non_cast_examples_ignored(self):
        assert generalize_examples([example(MAKE_A, GET_TARGETS)]) == []


class TestSuffixSets:
    def test_unique_suffixes_dedupe(self):
        gens = generalize_examples(
            [
                example(MAKE_A, GET_TARGETS, GET, CAST_T),
                example(OTHER_A, GET_TARGETS, GET, CAST_T),
            ]
        )
        assert len(unique_suffixes(gens)) == 1

    def test_generalize_to_suffixes_end_to_end(self):
        suffixes = unique_suffixes(
            generalize_examples(
                [
                    example(MAKE_A, GET_TARGETS, GET, CAST_T),
                    example(MAKE_A, GET_PROPS, GET, CAST_U),
                ]
            )
        )
        assert {chain_signature(s) for s in suffixes} == {
            ("A.getTargets", "H.get", "cast T"),
            ("A.getProperties", "H.get", "cast U"),
        }

    def test_suffix_is_true_suffix(self):
        gens = generalize_examples(
            [example(MAKE_A, GET_TARGETS, GET, CAST_T)]
        )
        for g in gens:
            n = len(g.suffix)
            assert g.example.jungloid.steps[-n:] == g.suffix.steps
            assert g.suffix.steps[-1].is_downcast


class TestEdgeCases:
    def test_duplicate_examples_same_cast(self):
        # The same slice mined twice (e.g. copy-pasted corpus code) must
        # not conflict with itself: both keep the minimal suffix.
        gens = generalize_examples(
            [
                example(MAKE_A, GET_TARGETS, GET, CAST_T),
                example(MAKE_A, GET_TARGETS, GET, CAST_T, tag="copy.mj"),
            ]
        )
        assert len(gens) == 2
        for g in gens:
            assert chain_signature(g.suffix) == ("H.get", "cast T")

    def test_single_example_corpus(self):
        [g] = generalize_examples([example(GET, CAST_T)])
        assert chain_signature(g.suffix) == ("H.get", "cast T")
        assert g.trimmed_steps == 0

    def test_identical_paths_different_casts_both_survive(self):
        gens = generalize_examples(
            [
                example(MAKE_A, GET_TARGETS, GET, CAST_T),
                example(MAKE_A, GET_TARGETS, GET, CAST_U),
            ]
        )
        # Full-path retention for both; neither example is dropped.
        assert len(gens) == 2
        assert {g.suffix.output_type for g in gens} == {T, U}


class TestIncrementalGeneralizer:
    def examples(self):
        return [
            example(MAKE_A, GET_TARGETS, GET, CAST_T),
            example(OTHER_A, GET_TARGETS, GET, CAST_T),
            example(MAKE_A, GET_PROPS, GET, CAST_U),
        ]

    def test_insert_matches_batch(self):
        from repro.mining import IncrementalGeneralizer

        examples = self.examples()
        inc = IncrementalGeneralizer()
        for e in examples:
            assert inc.insert(e)
        batch = generalize_examples(examples)
        assert [g.suffix.steps for g in inc.generalize(examples)] == [
            g.suffix.steps for g in batch
        ]

    def test_remove_restores_earlier_state(self):
        from repro.mining import IncrementalGeneralizer

        examples = self.examples()
        inc = IncrementalGeneralizer()
        inc.insert(examples[0])
        before = inc.suffix_for(examples[0]).steps
        # Adding then removing the conflicting U example must restore
        # the original (shorter) suffix for the T example.
        inc.insert(examples[2])
        widened = inc.suffix_for(examples[0]).steps
        assert len(widened) > len(before)
        assert inc.remove(examples[2])
        assert inc.suffix_for(examples[0]).steps == before

    def test_remove_unknown_raises(self):
        import pytest

        from repro.mining import IncrementalGeneralizer

        inc = IncrementalGeneralizer()
        inc.insert(example(MAKE_A, GET_TARGETS, GET, CAST_T))
        with pytest.raises(KeyError):
            inc.remove(example(GET_PROPS, GET, CAST_U))

    def test_non_cast_examples_are_ignored(self):
        from repro.mining import IncrementalGeneralizer

        inc = IncrementalGeneralizer()
        plain = example(MAKE_A, GET_TARGETS)
        assert not inc.insert(plain)
        assert not inc.remove(plain)
        assert inc.generalize([plain]) == []


ELEMENTS = step(H, "elements", OBJ)
DATA = step(A, "data", OBJ)


def _chains():
    """Pre-cast chains whose last step (the depth-1 trie key) varies."""
    chains = []
    for first in (MAKE_A, OTHER_A):
        for mid in (GET_TARGETS, GET_PROPS):
            for last in (GET, ELEMENTS):
                chains.append((first, mid, last))
        chains.append((first, DATA))
    return chains


CHAINS = _chains()


class TestIncrementalGeneralizerProperties:
    """Random interleavings of insert, remove and generalize: every
    generalize equals the batch function over the live examples."""

    op = st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, len(CHAINS) - 1),
            st.integers(0, 2),
            st.sampled_from([CAST_T, CAST_U, None]),
        ),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.just("generalize"), st.booleans()),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2), st.lists(op, max_size=40))
    def test_every_generalize_equals_the_batch(self, min_precast, ops):
        inc = IncrementalGeneralizer(min_precast)
        live = []
        previous = []
        for op in ops + [("generalize", False)]:
            if op[0] == "insert":
                chain = CHAINS[op[1]][op[2]:] or CHAINS[op[1]][-1:]
                steps = chain + ((op[3],) if op[3] is not None else ())
                e = example(*steps)
                inc.insert(e)
                live.append(e)
            elif op[0] == "remove":
                if live:
                    inc.remove(live.pop(op[1] % len(live)))
            else:
                # Sometimes pass a live example twice: results are per object.
                passed = live + live[:1] if op[1] else list(live)
                got = inc.generalize(passed)
                want = generalize_examples(passed, min_precast)
                assert [(g.example, g.suffix.steps) for g in got] == [
                    (g.example, g.suffix.steps) for g in want
                ]
                suffixes = unique_suffixes(got)
                assert [j.steps for j in suffixes] == [j.steps for j in unique_suffixes(want)]
                # One object per suffix; the graft delta is exactly the
                # suffixes that came and went.
                assert len({j.steps for j in suffixes}) == len(suffixes)
                old = {j.steps for j in previous}
                new = {j.steps for j in suffixes}
                born = [j.steps for j in suffixes if j.steps not in old]
                assert [j.steps for j in inc.added] == born
                assert {j.steps for j in inc.removed} == old - new
                previous = suffixes
