"""What mining a corpus produced: examples, generalized suffixes, faults.

:class:`~repro.pipeline.CorpusPipeline` fills one per sync and grafts its
suffixes into the jungloid graph, whose typestate paths make
downcast-bearing queries answerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..jungloids import Jungloid
from ..robustness import ExtractionFault
from .extractor import ExampleJungloid
from .generalize import GeneralizedExample


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
