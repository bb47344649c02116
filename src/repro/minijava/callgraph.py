"""Class-hierarchy-analysis (CHA) call graph for mini-Java corpora.

The extraction slice of Section 4.2 is interprocedural: when the backward
walk reaches a method parameter, it continues into the arguments at every
call site that may invoke that method. "May invoke" is approximated
conservatively with CHA, exactly as the paper describes ("a conservative
approximation of the call graph based on the type hierarchy"): a virtual
call on static type ``T`` may dispatch to the declared method and to any
override on a subtype of ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..typesystem import Method, NamedType, TypeRegistry
from .ast import CallExpr, ClassDecl, CompilationUnit, Expr, MethodDecl, method_expressions


@dataclass(frozen=True)
class CallSite:
    """One call expression within a corpus method."""

    caller: MethodDecl
    call: CallExpr
    targets: Tuple[Method, ...]


@dataclass
class CallGraph:
    """Corpus-wide mapping between declared methods and call sites."""

    #: All corpus methods with bodies, keyed by their registry Method.
    methods: Dict[Method, MethodDecl] = field(default_factory=dict)
    #: Every call site, indexed by each possible target method.
    callers_of: Dict[Method, List[CallSite]] = field(default_factory=dict)
    #: All call sites per caller declaration.
    calls_in: Dict[int, List[CallSite]] = field(default_factory=dict)
    #: Every expression of each body, in walk order, per declaration.
    expressions: Dict[int, Tuple[Expr, ...]] = field(default_factory=dict)

    def declaration_of(self, method: Method) -> Optional[MethodDecl]:
        """The corpus body for a method, if the corpus defines one."""
        return self.methods.get(method)

    def call_sites_of(self, method: Method) -> Tuple[CallSite, ...]:
        """Call sites that may invoke ``method`` (CHA)."""
        return tuple(self.callers_of.get(method, ()))

    def call_sites_in(self, decl: MethodDecl) -> Tuple[CallSite, ...]:
        return tuple(self.calls_in.get(id(decl), ()))

    def expressions_in(self, decl: MethodDecl) -> Tuple[Expr, ...]:
        """Every expression of ``decl``'s body, as ``method_expressions``
        yields them; the graph's walk is reused, so slices over the same
        units do not walk the bodies again."""
        exprs = self.expressions.get(id(decl))
        if exprs is None:  # a body outside the graph's units
            exprs = tuple(method_expressions(decl))
        return exprs


def _cha_targets(registry: TypeRegistry, method: Method) -> Tuple[Method, ...]:
    """The CHA target set of a call resolved statically to ``method``."""
    if method.static:
        return (method,)
    owner = method.owner
    if not isinstance(owner, NamedType):
        return (method,)
    targets = [method]
    for sub in registry.all_subtypes(owner):
        for m in registry.declared_methods(sub):
            if m.name == method.name and m.parameter_types == method.parameter_types:
                targets.append(m)
    return tuple(targets)


def build_call_graph(
    registry: TypeRegistry, units: Sequence[CompilationUnit]
) -> CallGraph:
    """Build the corpus call graph from resolved compilation units."""
    graph = CallGraph()
    all_decls: List[MethodDecl] = []
    for unit in units:
        for cls in unit.classes:
            for m in cls.methods:
                if m.resolved_method is not None and m.body is not None:
                    graph.methods[m.resolved_method] = m
                if m.body is not None:
                    all_decls.append(m)
    for decl in all_decls:
        exprs = graph.expressions[id(decl)] = tuple(method_expressions(decl))
        for expr in exprs:
            if not isinstance(expr, CallExpr) or expr.resolved_method is None:
                continue
            targets = _cha_targets(registry, expr.resolved_method)
            site = CallSite(caller=decl, call=expr, targets=targets)
            graph.calls_in.setdefault(id(decl), []).append(site)
            for target in targets:
                graph.callers_of.setdefault(target, []).append(site)
    return graph
