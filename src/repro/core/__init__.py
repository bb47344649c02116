"""PROSPECTOR core: queries, context inference, the facade, composition."""

from .compose import ComposedSnippet, CompositionStep, complete_free_variables
from .context import CursorContext, VisibleVariable
from .prospector import Prospector, ProspectorConfig, repair_snapshot
from .query import Query, TypeSpec, resolve_type_spec
from .results import Synthesis

__all__ = [
    "ComposedSnippet",
    "CompositionStep",
    "CursorContext",
    "Prospector",
    "ProspectorConfig",
    "Query",
    "Synthesis",
    "TypeSpec",
    "VisibleVariable",
    "complete_free_variables",
    "repair_snapshot",
    "resolve_type_spec",
]
