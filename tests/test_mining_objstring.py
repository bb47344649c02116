"""Tests for the Object/String argument miner (Section 4.3)."""

import pytest

from repro import Prospector
from repro.analysis import CastAnalyzer
from repro.apispec import load_api_text
from repro.corpus import load_corpus_texts
from repro.data import standard_registry
from repro.eval import chain_signature
from repro.mining import (
    ArgumentMiner,
    ExtractionConfig,
    JungloidExtractor,
    group_by_parameter,
    mine_argument_examples,
    observed_argument_types,
)

API = """
package java.lang;
public class String {}

package m;
public class Viewer {
  public void setInput(Object input);
  public void setLabel(String label);
}
public class Model {
  public Model();
}
public class Loader {
  public static Model load(String path);
}
public class File {
  public String getPath();
}
"""

CORPUS = """
package c;
import m.Viewer;
import m.Model;
import m.Loader;
import m.File;

class K {
  void show(Viewer viewer, File f) {
    Model model = Loader.load(f.getPath());
    viewer.setInput(model);
  }
  void label(Viewer viewer, File f) {
    viewer.setLabel(f.getPath());
  }
  void direct(Viewer viewer) {
    viewer.setInput(new Model());
  }
}
"""


def mine():
    registry = load_api_text(API)
    corpus = load_corpus_texts(registry, [("k.mj", CORPUS)])
    return registry, mine_argument_examples(
        corpus.registry, corpus.units, corpus.corpus_types
    )


class TestArgumentMining:
    def test_object_parameter_mined(self):
        registry, examples = mine()
        set_input = [e for e in examples if e.method.name == "setInput"]
        assert set_input
        chains = {chain_signature(e.jungloid) for e in set_input}
        assert ("File.getPath", "Loader.load") in chains
        assert ("new Model",) in chains

    def test_string_parameter_mined(self):
        registry, examples = mine()
        set_label = [e for e in examples if e.method.name == "setLabel"]
        chains = {chain_signature(e.jungloid) for e in set_label}
        assert ("File.getPath",) in chains

    def test_observed_types_refine_object(self):
        registry, examples = mine()
        observed = observed_argument_types(examples)
        set_input = registry.find_method(registry.lookup("m.Viewer"), "setInput")[0]
        # Declared Object, but only Model values are ever passed.
        assert observed[(set_input, 0)] == {"m.Model"}

    def test_group_by_parameter(self):
        registry, examples = mine()
        grouped = group_by_parameter(examples)
        set_input = registry.find_method(registry.lookup("m.Viewer"), "setInput")[0]
        assert (set_input, 0) in grouped
        assert len(grouped[(set_input, 0)]) >= 2

    def test_provenance(self):
        _, examples = mine()
        assert all(e.source == "k.mj" for e in examples)
        assert {e.caller_name for e in examples} == {"show", "label", "direct"}


def deep_chain_corpus(depth=2000):
    """A method whose 2,000-deep chain of String locals feeds both a
    downcast and ``Class.forName``, next to a healthy ``forName`` site."""
    copies = "\n".join(f"    String s{i} = s{i - 1};" for i in range(1, depth))
    return f"""
package client;

public class Deep {{
  public Class deep() {{
    String s0 = "java.lang.Object";
{copies}
    Object o = s{depth - 1};
    String name = (String) o;
    return Class.forName(s{depth - 1});
  }}

  public Class healthy() {{
    return Class.forName(new StringBuffer().toString());
  }}
}}
"""


class TestPerSiteFaultIsolation:
    """A slice too deep to walk faults its own site, in every interpretation."""

    @pytest.fixture(scope="class")
    def api(self):
        return standard_registry()

    @pytest.fixture(scope="class")
    def corpus(self, api):
        return load_corpus_texts(api, [("deep.mj", deep_chain_corpus())])

    def _args(self, corpus):
        return corpus.registry, corpus.units, corpus.corpus_types

    def test_argument_miner_records_fault_and_mines_other_sites(self, corpus):
        miner = ArgumentMiner(*self._args(corpus))
        examples = miner.mine_arguments()
        assert [f.method for f in miner.faults] == ["deep"]
        assert "RecursionError" in miner.faults[0].error
        assert [e.caller_name for e in examples] == ["healthy"]
        assert examples[0].jungloid.render_expression("x") == (
            "new java.lang.StringBuffer().toString()"
        )

    def test_extractor_and_analyzer_record_the_same_fault(self, corpus):
        extractor = JungloidExtractor(*self._args(corpus))
        extractor.extract_all()
        analyzer = CastAnalyzer(*self._args(corpus))
        observations = analyzer.analyze_all()
        assert observations == []
        for faults in (extractor.faults, analyzer.faults):
            assert [(f.source, f.method) for f in faults] == [("deep.mj", "deep")]
            assert "RecursionError" in faults[0].error

    def test_strict_config_propagates_in_every_interpretation(self, corpus):
        strict = ExtractionConfig(strict=True)
        with pytest.raises(RecursionError):
            ArgumentMiner(*self._args(corpus), config=strict).mine_arguments()
        with pytest.raises(RecursionError):
            JungloidExtractor(*self._args(corpus), config=strict).extract_all()
        with pytest.raises(RecursionError):
            CastAnalyzer(*self._args(corpus), config=strict).analyze_all()

    def test_prospector_suggests_from_the_healthy_site(self, api, corpus):
        prospector = Prospector(api, corpus)
        suggestions = prospector.suggest_arguments("java.lang.Class", "forName")
        assert [s.caller_name for s in suggestions] == ["healthy"]
