"""Bundled data: J2SE/Eclipse/SWT/JFace/GEF/Ant API stubs and a mini-Java
corpus of client programs carrying the paper's downcast idioms.

These stand in for the class files and production Eclipse code the
original PROSPECTOR consumed (see DESIGN.md's substitution table). The
stub surface is authored to cover every Table-1 problem, the worked
examples of Sections 1-4, and the user-study problems.
"""

from __future__ import annotations

import importlib.resources
from typing import List, Optional, Tuple

from ..apispec import ApiBuilder, load_api_texts
from ..corpus import CorpusProgram, load_corpus_texts
from ..typesystem import TypeRegistry


def _read_bundle(subdir: str, suffix: str) -> List[Tuple[str, str]]:
    root = importlib.resources.files(__package__) / subdir
    texts = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(suffix):
            texts.append((entry.name, entry.read_text(encoding="utf-8")))
    return texts


def api_stub_texts() -> List[Tuple[str, str]]:
    """The bundled ``.api`` stub files as ``(name, text)`` pairs."""
    return _read_bundle("api", ".api")


def corpus_texts() -> List[Tuple[str, str]]:
    """The bundled ``.mj`` corpus files as ``(name, text)`` pairs."""
    return _read_bundle("corpus", ".mj")


def _add_object_members(registry: TypeRegistry) -> None:
    """Declare java.lang.Object's members (Object itself is implicit)."""
    api = ApiBuilder(registry)
    api.on("java.lang.Object").method("toString", "java.lang.String").method(
        "equals", "boolean", ["java.lang.Object"]
    ).method("hashCode", "int").method("getClass", "java.lang.Class")


def standard_registry() -> TypeRegistry:
    """Load every bundled stub file into a fresh registry."""
    registry = load_api_texts(api_stub_texts())
    _add_object_members(registry)
    return registry


def standard_corpus(registry: TypeRegistry) -> CorpusProgram:
    """Load and resolve the bundled corpus against ``registry``."""
    return load_corpus_texts(registry, corpus_texts())


_CACHED: Optional[Tuple[TypeRegistry, CorpusProgram]] = None


def standard_setup(refresh: bool = False) -> Tuple[TypeRegistry, CorpusProgram]:
    """Registry + corpus, cached module-wide.

    The cache keeps the evaluation harness and benchmarks from re-parsing
    the bundles for every experiment. The program is shared, not pure
    data: the first pipeline built from it adopts its parsed units and
    resolution cache, and that pipeline's updates re-resolve those units
    in place; later pipelines parse afresh. Pass ``refresh=True`` to force
    a rebuild (tests that mutate the registry, or need a program of their
    own, should instead build one via :func:`standard_registry` and
    :func:`standard_corpus`).
    """
    global _CACHED
    if _CACHED is None or refresh:
        registry = standard_registry()
        _CACHED = (registry, standard_corpus(registry))
    return _CACHED
