"""The mining pipeline: extract → generalize → graft into a jungloid graph.

This is the orchestration layer the PROSPECTOR facade uses: given the API
registry and a resolved corpus, it produces the jungloid graph whose
typestate paths make downcast-bearing queries answerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..graph import JungloidGraph
from ..jungloids import Jungloid
from ..minijava.ast import CompilationUnit
from ..minijava.callgraph import CallGraph
from ..robustness import ExtractionFault
from ..typesystem import NamedType, TypeRegistry
from .extractor import ExampleJungloid, JungloidExtractor
from .generalize import GeneralizedExample, generalize_examples, unique_suffixes
from .slicer import ExtractionConfig


@dataclass
class MiningResult:
    """Everything the miner produced, with intermediate stages exposed."""

    examples: List[ExampleJungloid] = field(default_factory=list)
    generalized: List[GeneralizedExample] = field(default_factory=list)
    suffixes: List[Jungloid] = field(default_factory=list)
    #: Per-cast extraction failures that were isolated rather than raised.
    faults: List[ExtractionFault] = field(default_factory=list)

    @property
    def example_count(self) -> int:
        return len(self.examples)

    @property
    def suffix_count(self) -> int:
        return len(self.suffixes)

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    def trimming_summary(self) -> dict:
        """How much generalization shortened the raw examples."""
        if not self.generalized:
            return {"examples": 0, "mean_example_len": 0.0, "mean_suffix_len": 0.0}
        total_len = sum(len(g.example.jungloid) for g in self.generalized)
        total_suffix = sum(len(g.suffix) for g in self.generalized)
        n = len(self.generalized)
        return {
            "examples": n,
            "mean_example_len": total_len / n,
            "mean_suffix_len": total_suffix / n,
        }


def mine_corpus(
    registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    corpus_types: Sequence[NamedType],
    config: ExtractionConfig = ExtractionConfig(),
    call_graph: Optional[CallGraph] = None,
    min_precast_steps: int = 1,
) -> MiningResult:
    """Run extraction and generalization over a resolved corpus.

    ``registry`` must be the corpus-augmented registry the resolver used
    (client classes resolvable); the mined suffixes reference API members
    by value, so they graft cleanly onto a graph built from the pristine
    API registry.
    """
    extractor = JungloidExtractor(registry, units, corpus_types, call_graph, config)
    examples = extractor.extract_all()
    generalized = generalize_examples(examples, min_precast_steps=min_precast_steps)
    return MiningResult(
        examples=examples,
        generalized=generalized,
        suffixes=unique_suffixes(generalized),
        faults=list(extractor.faults),
    )


def build_jungloid_graph(
    api_registry: TypeRegistry,
    mining: MiningResult,
    public_only: bool = True,
) -> JungloidGraph:
    """Build the full jungloid graph: signatures plus mined suffixes."""
    return JungloidGraph.build(api_registry, mining.suffixes, public_only=public_only)
