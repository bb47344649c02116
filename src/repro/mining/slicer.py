"""The backward, interprocedural, flow-insensitive slice (Section 4.2).

Mining, cast analysis and argument mining all walk one slice. From a
site (a downcast's operand, or an argument at an API call) the slice
reaches back through:

* every expression ever assigned to a local, in any order (the paper's
  flow-insensitive approximation);
* a client method's return expressions, with its parameters and receiver
  bound to the call site's expressions (client-call inlining);
* the matching argument at every CHA call site of the outermost method,
  when the walk reaches one of that method's parameters (caller jumps).

:class:`BackwardSlicer` owns that structure: frames, assignment maps, the
downcast test, client-body lookup, the caller-jump iteration and the
per-site fault-isolation loop. Each interpretation subclasses it and
keeps only its own fold over the slice:

* :class:`~repro.mining.extractor.JungloidExtractor` builds a chain of
  elementary jungloids along every acyclic path;
* :class:`~repro.mining.objstring.ArgumentMiner` builds the same chains
  from call arguments instead of downcasts;
* :class:`~repro.analysis.castsafety.CastAnalyzer` joins abstract values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from ..minijava.ast import (
    CallExpr,
    CastExpr,
    CompilationUnit,
    Expr,
    MethodDecl,
    ReturnStmt,
    VarRef,
    walk_statements,
)
from ..minijava.callgraph import CallGraph, build_call_graph
from ..robustness import ExtractionFault
from ..typesystem import NamedType, TypeRegistry, is_reference
from .dataflow import AssignmentMap, build_assignment_map

T = TypeVar("T")


@dataclass(frozen=True)
class ExtractionConfig:
    """Budgets bounding the backward slice and the chains mined from it."""

    #: Stop after this many examples for one site (paper's cap; mining only).
    max_examples_per_cast: int = 200
    #: Longest chain (in elementary jungloids) worth keeping (mining only).
    max_steps: int = 12
    #: Maximum interprocedural frame switches on one path.
    max_frames: int = 8
    #: Drop bare-downcast examples (they would overgeneralize the graph).
    min_example_steps: int = 2
    #: Propagate per-site errors instead of recording them as faults.
    #: Off by default: one pathological site must not sink a whole pass.
    strict: bool = False


class SliceFrame:
    """One activation on a slice's interprocedural path."""

    __slots__ = ("decl", "bindings", "receiver_binding", "depth")

    def __init__(
        self,
        decl: MethodDecl,
        bindings: Optional[Dict[str, Tuple[Expr, "SliceFrame"]]] = None,
        receiver_binding: Optional[Tuple[Optional[Expr], "SliceFrame"]] = None,
        depth: int = 0,
    ):
        self.decl = decl
        self.bindings = bindings  # None for a top (non-inlined) frame
        self.receiver_binding = receiver_binding
        self.depth = depth

    def binding(self, name: str) -> Optional[Tuple[Expr, "SliceFrame"]]:
        """The call-site expression bound to parameter ``name``, if inlined."""
        return self.bindings.get(name) if self.bindings is not None else None


#: One expression to continue the slice at, with its frame and inline stack.
Flow = Tuple[Expr, SliceFrame, frozenset]


class BackwardSlicer:
    """The slice's shared structure over one resolved corpus."""

    def __init__(
        self,
        registry: TypeRegistry,
        units: Sequence[CompilationUnit],
        corpus_types: Sequence[NamedType],
        call_graph: Optional[CallGraph] = None,
        config: ExtractionConfig = ExtractionConfig(),
    ):
        self.registry = registry
        self.units = list(units)
        self.corpus_type_set: Set[NamedType] = set(corpus_types)
        self.call_graph = call_graph or build_call_graph(registry, units)
        self.config = config
        self._assignment_maps: Dict[int, AssignmentMap] = {}
        #: Per-site failures recorded (not raised) while slicing.
        self.faults: List[ExtractionFault] = []

    def slice_sites(
        self,
        unit: CompilationUnit,
        select: Callable[[Expr], bool],
        interpret: Callable[[CompilationUnit, MethodDecl, Expr], Iterable[T]],
    ) -> List[T]:
        """Interpret every selected expression of ``unit``, one site at a time.

        An error at one site is recorded in :attr:`faults` and the pass
        moves on (unless ``config.strict``), so one pathological slice
        cannot sink the others. A failed site contributes nothing.
        """
        results: List[T] = []
        for cls in unit.classes:
            for method in cls.methods:
                for expr in self.call_graph.expressions_in(method):
                    try:
                        if not select(expr):
                            continue
                        found = list(interpret(unit, method, expr))
                    except Exception as exc:
                        if self.config.strict:
                            raise
                        self.faults.append(
                            ExtractionFault(
                                source=unit.source,
                                method=method.name,
                                position=str(expr.position),
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        )
                        continue
                    results.extend(found)
        return results

    def is_downcast(self, expr: Expr) -> bool:
        """Whether ``expr`` is a reference cast that is not a widening."""
        if not isinstance(expr, CastExpr):
            return False
        target, operand = expr.resolved_type, expr.operand_type
        if target is None or operand is None:
            return False
        if not (is_reference(target) and is_reference(operand)):
            return False
        if target == operand:
            return False
        return not self.registry.is_subtype(operand, target)

    def local_sources(self, frame: SliceFrame, name: str) -> Tuple[Expr, ...]:
        """Every expression assigned to local ``name`` in the frame's method."""
        decl = frame.decl
        amap = self._assignment_maps.get(id(decl))
        if amap is None:
            amap = build_assignment_map(decl)
            self._assignment_maps[id(decl)] = amap
        return amap.sources_of(name)

    def inline(
        self, call: CallExpr, frame: SliceFrame, inline_stack: frozenset
    ) -> Optional[List[Flow]]:
        """The return flows of the client method ``call`` reaches.

        ``None`` means the call is not to a client method with a body (an
        API call), which each interpretation reads its own way. An empty
        list means the callee returns nothing, or inlining it would
        recurse or exceed ``config.max_frames``.
        """
        method = call.resolved_method
        assert method is not None
        is_client = isinstance(method.owner, NamedType) and method.owner in self.corpus_type_set
        body = self.call_graph.declaration_of(method)
        if not is_client or body is None:
            return None
        if id(body) in inline_stack or frame.depth >= self.config.max_frames:
            return []
        bindings = {param.name: (arg, frame) for param, arg in zip(body.params, call.args)}
        receiver = None if method.static else (call.receiver, frame)
        callee = SliceFrame(body, bindings, receiver, frame.depth + 1)
        stack = inline_stack | {id(body)}
        return [(ret, callee, stack) for ret in return_expressions(body)]

    def caller_arguments(
        self, var: VarRef, frame: SliceFrame, inline_stack: frozenset
    ) -> List[Flow]:
        """A top-frame parameter's argument at every CHA call site.

        Empty when the parameter cannot be jumped from: unresolved, at
        ``config.max_frames``, recursive, or without call sites.
        """
        decl = frame.decl
        method = decl.resolved_method
        index = next((i for i, p in enumerate(decl.params) if p.name == var.name), None)
        if method is None or index is None or frame.depth >= self.config.max_frames:
            return []
        sites = self.call_graph.call_sites_of(method)
        if id(decl) in inline_stack:
            return []
        stack = inline_stack | {id(decl)}
        return [
            (site.call.args[index], SliceFrame(site.caller, depth=frame.depth + 1), stack)
            for site in sites
            if id(site.caller) not in inline_stack and index < len(site.call.args)
        ]


def return_expressions(decl: MethodDecl) -> List[Expr]:
    """Every ``return`` value in ``decl``'s body."""
    if decl.body is None:
        return []
    return [
        stmt.value
        for stmt in walk_statements(decl.body)
        if isinstance(stmt, ReturnStmt) and stmt.value is not None
    ]
