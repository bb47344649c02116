"""Golden contract for the backward slice on the bundled corpus.

Mining (:class:`~repro.mining.JungloidExtractor`), cast analysis
(:class:`~repro.analysis.CastAnalyzer`) and argument mining
(:class:`~repro.mining.ArgumentMiner`) all interpret the same backward,
interprocedural slice. This test pins what each interpretation produces
on ``standard_registry()`` plus ``corpus_texts()``:

* every mined example as ``(source, method, cast position, rendering)``,
  in extraction order;
* the extraction faults;
* the cast-verdict index (``CastVerdictIndex.to_dict()``);
* every argument example, in mining order.

A change to the slice that moves any of these fails here. Regenerate the
golden file only for an intended change, with
``PYTHONPATH=src python -m tests.test_slice_contract``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.corpus import load_corpus_texts
from repro.data import corpus_texts, standard_registry
from repro.mining import ArgumentMiner, JungloidExtractor
from repro.pipeline import CorpusPipeline

GOLDEN = Path(__file__).parent / "golden" / "slice_contract.json"


def slice_contract() -> dict:
    """The contract's current value, in its JSON form."""
    program = load_corpus_texts(standard_registry(), corpus_texts())
    args = (program.registry, program.units, program.corpus_types)
    extractor = JungloidExtractor(*args)
    examples = extractor.extract_all()
    arguments = ArgumentMiner(*args).mine_arguments()
    pipeline = CorpusPipeline.build(standard_registry(), corpus_texts())
    return {
        "examples": [
            [e.source, e.method_name, str(e.cast_position), e.jungloid.render_expression("x")]
            for e in examples
        ],
        "faults": [[f.source, f.method, f.position, f.error] for f in extractor.faults],
        "verdicts": pipeline.verdicts.to_dict(),
        "arguments": [
            [
                a.source,
                a.caller_name,
                str(a.position),
                f"{a.method.owner}.{a.method.name}",
                a.parameter_index,
                a.jungloid.render_expression("x"),
            ]
            for a in arguments
        ],
    }


@pytest.fixture(scope="module")
def contract():
    return slice_contract()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("part", ["examples", "faults", "verdicts", "arguments"])
def test_slice_contract_matches_golden(contract, golden, part):
    assert contract[part] == golden[part]


def test_golden_is_not_vacuous(golden):
    assert len(golden["examples"]) > 30
    assert len(golden["verdicts"]["pairs"]) > 10
    assert golden["arguments"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(slice_contract(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
