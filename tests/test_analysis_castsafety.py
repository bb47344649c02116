"""Tests for the interprocedural cast-safety analyzer and verdict index."""

import pytest

from repro.analysis import (
    CastAnalyzer,
    CastVerdict,
    CastVerdictIndex,
    analyze_corpus,
    cast_plausible,
    classify_pair,
)
from repro.apispec import load_api_text
from repro.corpus import load_corpus_texts
from repro.jungloids import Jungloid, downcast
from repro.mining import ExtractionConfig, JungloidExtractor
from repro.runtime import Outcome, Runtime, eclipse_behavior_model

API = """
package java.lang;
public class String {}

package lib;
public interface IShape {}
public class Base {}
public class Sub extends Base implements IShape {
  public Sub();
}
public class Other extends Base {
  public Other();
}
public class Source {
  public Source();
  public Base opaque();
}
public class SubFactory {
  public SubFactory();
  public Sub make();
}
"""


def index_for(corpus_text, source="test.mj"):
    registry = load_api_text(API)
    program = load_corpus_texts(registry, [(source, corpus_text)], check=False)
    return registry, analyze_corpus(
        program.registry, program.units, program.corpus_types
    )


def finding(index, operand, target):
    registry = index.registry
    return index.verdict_for_cast(registry.lookup(operand), registry.lookup(target))


class TestClassification:
    def test_allocation_proved_is_justified(self):
        _, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            class K {
              Sub get() {
                Base b = new Sub();
                Sub s = (Sub) b;
                return s;
              }
            }
            """
        )
        f = finding(index, "lib.Base", "lib.Sub")
        assert f.verdict is CastVerdict.JUSTIFIED
        assert "allocation" in f.evidence
        assert f.witnesses == 1
        assert "lib.Sub" in f.definite_types

    def test_opaque_api_flow_is_justified(self):
        _, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            import lib.Source;
            class K {
              Sub get(Source src) {
                Base b = src.opaque();
                Sub s = (Sub) b;
                return s;
              }
            }
            """
        )
        f = finding(index, "lib.Base", "lib.Sub")
        assert f.verdict is CastVerdict.JUSTIFIED
        assert "corpus-witnessed" in f.evidence

    def test_definite_incompatible_is_inviable(self):
        _, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            import lib.Other;
            class K {
              Sub get() {
                Base b = new Other();
                Sub s = (Sub) b;
                return s;
              }
            }
            """
        )
        f = finding(index, "lib.Base", "lib.Sub")
        assert f.verdict is CastVerdict.INVIABLE
        assert "definite and incompatible" in f.evidence
        assert f.definite_types == ("lib.Other",)

    def test_null_flow_does_not_prove_inviable(self):
        # A null reaching a cast yields NULL at runtime, never
        # CLASS_CAST; a null-only flow must stay compatible.
        _, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            class K {
              Sub get() {
                Base b = null;
                Sub s = (Sub) b;
                return s;
              }
            }
            """
        )
        f = finding(index, "lib.Base", "lib.Sub")
        assert f.verdict is CastVerdict.JUSTIFIED

    def test_interprocedural_allocation_through_client_call(self):
        _, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            class K {
              Base make() {
                return new Sub();
              }
              Sub get() {
                Base b = make();
                Sub s = (Sub) b;
                return s;
              }
            }
            """
        )
        f = finding(index, "lib.Base", "lib.Sub")
        assert f.verdict is CastVerdict.JUSTIFIED
        assert "allocation" in f.evidence

    def test_caller_argument_jump_proves_allocation(self):
        _, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            class K {
              Sub narrow(Base b) {
                Sub s = (Sub) b;
                return s;
              }
              Sub run() {
                return narrow(new Sub());
              }
            }
            """
        )
        f = finding(index, "lib.Base", "lib.Sub")
        assert f.verdict is CastVerdict.JUSTIFIED
        assert "allocation" in f.evidence


class TestSynthesizedVerdicts:
    def test_unwitnessed_related_pair_is_plausible(self):
        registry, index = index_for(
            """
            package c;
            class K { }
            """
        )
        f = finding(index, "lib.Base", "lib.Sub")
        assert f.verdict is CastVerdict.PLAUSIBLE
        assert f.witnesses == 0

    def test_unwitnessed_unrelated_pair_is_inviable(self):
        registry, index = index_for(
            """
            package c;
            class K { }
            """
        )
        f = finding(index, "lib.Other", "lib.Sub")
        assert f.verdict is CastVerdict.INVIABLE

    def test_synthesized_findings_are_cached(self):
        _, index = index_for("package c;\nclass K { }\n")
        a = finding(index, "lib.Base", "lib.Sub")
        b = finding(index, "lib.Base", "lib.Sub")
        assert a is b

    def test_cast_plausible_interface_side(self):
        registry = load_api_text(API)
        base = registry.lookup("lib.Base")
        shape = registry.lookup("lib.IShape")
        other = registry.lookup("lib.Other")
        sub = registry.lookup("lib.Sub")
        assert cast_plausible(registry, base, shape)
        assert cast_plausible(registry, shape, other)
        assert not cast_plausible(registry, other, sub)


class TestJungloidComposition:
    def test_verdict_composes_worst_over_downcasts(self):
        registry, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            class K {
              Sub get() {
                Base b = new Sub();
                Sub s = (Sub) b;
                return s;
              }
            }
            """
        )
        base = registry.lookup("lib.Base")
        sub = registry.lookup("lib.Sub")
        other = registry.lookup("lib.Other")
        good = Jungloid.of(downcast(base, sub))
        assert index.verdict_for_jungloid(good).verdict is CastVerdict.JUSTIFIED
        bad = Jungloid.of(downcast(other, sub))
        assert index.verdict_for_jungloid(bad).verdict is CastVerdict.INVIABLE
        assert index.demotion_rank(good) == 0
        assert index.demotion_rank(bad) == 1

    def test_no_downcast_is_vacuously_justified(self):
        _, index = index_for("package c;\nclass K { }\n")
        verdict = CastVerdict.worst(())
        assert verdict is CastVerdict.JUSTIFIED


class TestRoundTrip:
    def test_index_to_dict_from_dict(self):
        registry, index = index_for(
            """
            package c;
            import lib.Base;
            import lib.Sub;
            class K {
              Sub get() {
                Base b = new Sub();
                Sub s = (Sub) b;
                return s;
              }
            }
            """
        )
        data = index.to_dict()
        clone = CastVerdictIndex.from_dict(registry, data)
        assert len(clone) == len(index)
        assert clone.witnessed_pairs == index.witnessed_pairs
        original = finding(index, "lib.Base", "lib.Sub")
        restored = finding(clone, "lib.Base", "lib.Sub")
        assert restored == original
        assert clone.to_dict() == data


class TestSoundness:
    """No JUSTIFIED jungloid may dynamically throw ClassCastException."""

    def test_mined_examples_sound(self, standard_prospector):
        prospector = standard_prospector
        runtime = Runtime(eclipse_behavior_model(prospector.registry))
        assert prospector.mining is not None
        checked = 0
        for example in prospector.mining.examples:
            verdict = prospector.verify(example.jungloid).verdict
            outcome = runtime.execute(example.jungloid).outcome
            if verdict is CastVerdict.JUSTIFIED:
                assert outcome is not Outcome.CLASS_CAST
                checked += 1
        assert checked > 0

    def test_top_ranked_sound(self, standard_prospector):
        from repro.eval import TABLE1_PROBLEMS

        prospector = standard_prospector
        runtime = Runtime(eclipse_behavior_model(prospector.registry))
        checked = 0
        for problem in TABLE1_PROBLEMS:
            for result in prospector.query(problem.t_in, problem.t_out)[:3]:
                verdict = prospector.verify(result.jungloid).verdict
                outcome = runtime.execute(result.jungloid).outcome
                if verdict is CastVerdict.JUSTIFIED:
                    assert outcome is not Outcome.CLASS_CAST
                    checked += 1
        assert checked > 0


class TestFaultIsolation:
    def test_classify_pair_requires_observations(self):
        with pytest.raises(AssertionError):
            classify_pair([])


class TestSharedSliceBudgets:
    """The analyzer reads the extraction budgets it shares with mining:
    ``max_frames`` bounds it, the per-cast example cap does not."""

    CLIENT_CALL = """
        package c;
        import lib.Base;
        import lib.Sub;
        import lib.Other;
        class K {
          Base make() {
            return new Sub();
          }
          Sub get() {
            Base b = make();
            b = new Other();
            Sub s = (Sub) b;
            return s;
          }
        }
        """

    def observe(self, config):
        registry = load_api_text(API)
        program = load_corpus_texts(registry, [("k.mj", self.CLIENT_CALL)], check=False)
        args = (program.registry, program.units, program.corpus_types)
        (obs,) = CastAnalyzer(*args, config=config).analyze_all()
        return obs, JungloidExtractor(*args, config=config).extract_all()

    def test_max_frames_bounds_client_inlining(self):
        obs, _ = self.observe(ExtractionConfig())
        assert obs.allocation_proved and not obs.unknown_flow
        obs, _ = self.observe(ExtractionConfig(max_frames=0))
        assert not obs.allocation_proved and obs.unknown_flow

    def test_join_sees_every_flow_past_the_example_cap(self):
        obs, examples = self.observe(ExtractionConfig(max_examples_per_cast=1))
        assert len(examples) == 1
        assert obs.definite_types == ("lib.Other", "lib.Sub")
