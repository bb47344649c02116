"""Tests for example-jungloid generalization (the trie algorithm)."""

from repro.eval import chain_signature
from repro.jungloids import Jungloid, downcast, instance_call
from repro.minijava.ast import Position
from repro.mining import (
    ExampleJungloid,
    GeneralizedExample,
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
