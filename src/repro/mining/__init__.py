"""Jungloid mining: backward slicing, extraction, generalization."""

from ..robustness import ExtractionFault
from .dataflow import AssignmentMap, build_assignment_map, widening_chain
from .extractor import ExampleJungloid, JungloidExtractor, extract_examples
from .generalize import (
    GeneralizedExample,
    IncrementalGeneralizer,
    generalize_examples,
    unique_suffixes,
)
from .graft import MiningResult
from .objstring import (
    ArgumentExample,
    ArgumentMiner,
    DEFAULT_TARGET_TYPES,
    group_by_parameter,
    mine_argument_examples,
    observed_argument_types,
)
from .slicer import ExtractionConfig

__all__ = [
    "ArgumentExample",
    "ArgumentMiner",
    "AssignmentMap",
    "DEFAULT_TARGET_TYPES",
    "ExampleJungloid",
    "ExtractionConfig",
    "ExtractionFault",
    "GeneralizedExample",
    "IncrementalGeneralizer",
    "JungloidExtractor",
    "MiningResult",
    "build_assignment_map",
    "extract_examples",
    "generalize_examples",
    "group_by_parameter",
    "mine_argument_examples",
    "observed_argument_types",
    "unique_suffixes",
    "widening_chain",
]
