"""Mining for Object/String-typed parameters (Section 4.3).

Downcasts are not the only place signatures under-describe an API: a
parameter declared ``Object`` (Eclipse model classes) or ``String`` (URLs,
file names, ids) usually accepts only specific values. The paper proposes
— without evaluating — reusing jungloid mining with "methods having
Object or String parameters playing the role of downcasts". This module
implements that extension: for every corpus call site passing an argument
into such a parameter, we slice backward from the argument exactly as the
downcast extractor does, and generalize the mined chains per target
method. The result answers "what kinds of values does this Object/String
parameter actually take?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..jungloids import Jungloid
from ..minijava.ast import CallExpr, CompilationUnit, Expr, MethodDecl, Position
from ..minijava.callgraph import CallGraph
from ..typesystem import Method, NamedType, TypeRegistry, is_reference
from .extractor import JungloidExtractor
from .slicer import ExtractionConfig

#: Default parameter types whose arguments are worth mining.
DEFAULT_TARGET_TYPES = ("java.lang.Object", "java.lang.String")


@dataclass(frozen=True)
class ArgumentExample:
    """A mined chain that produced an argument for a weakly-typed parameter."""

    method: Method
    parameter_index: int
    jungloid: Jungloid
    source: str
    caller_name: str
    position: Position

    def __str__(self) -> str:
        return (
            f"{self.method.owner}.{self.method.name}(arg {self.parameter_index}) <- "
            f"{self.jungloid.describe()}"
        )


class ArgumentMiner(JungloidExtractor):
    """Builds the extractor's chains from call arguments instead of downcasts."""

    def __init__(
        self,
        registry: TypeRegistry,
        units: Sequence[CompilationUnit],
        corpus_types: Sequence[NamedType],
        target_type_names: Sequence[str] = DEFAULT_TARGET_TYPES,
        call_graph: Optional[CallGraph] = None,
        config: ExtractionConfig = ExtractionConfig(min_example_steps=1),
    ):
        super().__init__(registry, units, corpus_types, call_graph, config)
        self.target_types = {
            registry.lookup(name) for name in target_type_names if name in registry
        }

    def mine_arguments(self) -> List[ArgumentExample]:
        """Extract argument chains at every qualifying call site.

        Each call site is fault-isolated like a downcast in mining: an
        error is recorded in :attr:`faults` and the other sites are still
        mined (unless ``config.strict``).
        """
        results: List[ArgumentExample] = []
        for unit in self.units:
            results.extend(self.slice_sites(unit, _is_call, self._mine_call))
        return results

    def _mine_call(
        self, unit: CompilationUnit, caller: MethodDecl, call: CallExpr
    ) -> Iterator[ArgumentExample]:
        method = call.resolved_method
        if method is None:
            return
        # Only API methods are interesting: the goal is to document the API.
        if isinstance(method.owner, NamedType) and method.owner in self.corpus_type_set:
            return
        for index, param in enumerate(method.parameters):
            if param.type not in self.target_types:
                continue
            if index >= len(call.args):
                continue
            arg = call.args[index]
            if arg.resolved_type is None or not is_reference(arg.resolved_type):
                continue
            for chain in self._chains(arg, caller):
                yield ArgumentExample(
                    method=method,
                    parameter_index=index,
                    jungloid=Jungloid(chain),
                    source=unit.source,
                    caller_name=caller.name,
                    position=call.position,
                )


def _is_call(expr: Expr) -> bool:
    return isinstance(expr, CallExpr)


def mine_argument_examples(
    registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    corpus_types: Sequence[NamedType],
    target_type_names: Sequence[str] = DEFAULT_TARGET_TYPES,
) -> List[ArgumentExample]:
    """Convenience wrapper over :class:`ArgumentMiner`."""
    return ArgumentMiner(registry, units, corpus_types, target_type_names).mine_arguments()


def group_by_parameter(
    examples: Sequence[ArgumentExample],
) -> Dict[Tuple[Method, int], List[ArgumentExample]]:
    """Index mined argument chains by (method, parameter index)."""
    grouped: Dict[Tuple[Method, int], List[ArgumentExample]] = {}
    for e in examples:
        grouped.setdefault((e.method, e.parameter_index), []).append(e)
    return grouped


def observed_argument_types(
    examples: Sequence[ArgumentExample],
) -> Dict[Tuple[Method, int], Set[str]]:
    """The set of concrete types observed flowing into each parameter.

    This is the "refined type" view Section 4.3 motivates: a parameter
    declared ``Object`` that only ever receives ``JavaModel`` values.
    """
    result: Dict[Tuple[Method, int], Set[str]] = {}
    for e in examples:
        key = (e.method, e.parameter_index)
        result.setdefault(key, set()).add(str(e.jungloid.output_type))
    return result
