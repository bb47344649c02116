"""Class-hierarchy-analysis (CHA) call graph for mini-Java corpora.

The extraction slice of Section 4.2 is interprocedural: when the backward
walk reaches a method parameter, it continues into the arguments at every
call site that may invoke that method. "May invoke" is approximated
conservatively with CHA, exactly as the paper describes ("a conservative
approximation of the call graph based on the type hierarchy"): a virtual
call on static type ``T`` may dispatch to the declared method and to any
override on a subtype of ``T``.

The graph is an index with two lookups the slice needs: the body of a
method and the call sites that may invoke it. Nothing reads an order
over its methods or targets, so a rebuild after a corpus edit patches
the previous graph (:func:`build_call_graph` with ``previous``): a unit
whose bodies were not resolved again keeps its body walks and call
sites, a CHA target set is recomputed only when a corpus class beneath
its method's owner changed its supertypes or declared methods, or came
or went, only a changed unit's entries are dropped and added, and only
the caller lists of targets a changed unit's call sites name are
rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from ..typesystem import Method, NamedType, TypeRegistry
from .ast import CallExpr, CompilationUnit, Expr, MethodDecl, method_expressions


@dataclass(frozen=True)
class CallSite:
    """One call expression within a corpus method."""

    caller: MethodDecl
    call: CallExpr
    targets: Tuple[Method, ...]


#: A call's CHA target set: its resolved method, then overrides below it.
Targets = Tuple[Method, ...]
#: One method body: its declaration, its expressions in walk order, its call sites.
Body = Tuple[MethodDecl, Tuple[Expr, ...], Tuple[CallSite, ...]]
#: One declared class: its type, direct supertypes, declared methods and
#: all supertypes, as the graph's registry had them.
ClassShape = Tuple[NamedType, tuple, Tuple[Method, ...], Tuple[NamedType, ...]]


@dataclass(frozen=True)
class UnitCalls:
    """One unit's share of a call graph; a rebuild reuses it as one object
    while the unit keeps its annotations and its call targets."""

    unit: CompilationUnit
    bodies: Tuple[Body, ...]
    classes: Tuple[ClassShape, ...]
    #: Each body's registry method, as it was walked: the keys the unit
    #: adds to ``CallGraph.methods``.
    methods: Tuple[Tuple[Method, MethodDecl], ...]


@dataclass
class CallGraph:
    """Corpus-wide mapping between declared methods and call sites."""

    #: All corpus methods with bodies, keyed by their registry Method.
    methods: Dict[Method, MethodDecl] = field(default_factory=dict)
    #: Every call site, indexed by each possible target method; each
    #: list in corpus order, which the slicer walks it in.
    callers_of: Dict[Method, List[CallSite]] = field(default_factory=dict)
    #: All call sites per caller declaration.
    calls_in: Dict[int, List[CallSite]] = field(default_factory=dict)
    #: Every expression of each body, in walk order, per declaration.
    expressions: Dict[int, Tuple[Expr, ...]] = field(default_factory=dict)
    #: Each unit's share, by ``id(unit)``, in corpus order.
    units: Dict[int, UnitCalls] = field(default_factory=dict, repr=False, compare=False)
    #: CHA target sets per owner type, then per resolved method.
    targets: Dict[NamedType, Dict[Method, Targets]] = field(
        default_factory=dict, repr=False, compare=False
    )

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
    if method.static or not isinstance(method.owner, NamedType):
        return (method,)
    targets = [method]
    for sub in registry.all_subtypes(method.owner):
        for m in registry.declared_methods(sub):
            if m.name == method.name and m.parameter_types == method.parameter_types:
                targets.append(m)
    return tuple(targets)


class _Builder:
    """Call sites with their CHA targets, memoized per resolved method."""

    def __init__(self, registry: TypeRegistry, targets: Dict[NamedType, Dict[Method, Targets]]):
        self.registry = registry
        self.targets = targets

    def targets_of(self, method: Method) -> Targets:
        memo = self.targets.setdefault(method.owner, {})
        found = memo.get(method)
        if found is None:
            found = memo[method] = _cha_targets(self.registry, method)
        return found

    def walk(self, unit: CompilationUnit, classes: Tuple[ClassShape, ...]) -> UnitCalls:
        bodies = []
        for decl in (d for cls in unit.classes for d in cls.methods if d.body is not None):
            exprs = tuple(method_expressions(decl))
            sites = tuple(
                CallSite(decl, expr, self.targets_of(expr.resolved_method))
                for expr in exprs
                if isinstance(expr, CallExpr) and expr.resolved_method is not None
            )
            bodies.append((decl, exprs, sites))
        methods = tuple((d.resolved_method, d) for d, _, _ in bodies if d.resolved_method)
        return UnitCalls(unit, tuple(bodies), classes, methods)

    def retarget(self, calls: UnitCalls, affected: Set[NamedType]) -> UnitCalls:
        """``calls`` with the targets of calls into ``affected`` owners
        recomputed; the same object when none of them moved."""
        bodies = []
        moved = False
        for decl, exprs, sites in calls.bodies:
            new_sites = []
            for site in sites:
                if site.call.resolved_method.owner in affected:
                    targets = self.targets_of(site.call.resolved_method)
                    if targets != site.targets:
                        site = CallSite(decl, site.call, targets)
                        moved = True
                new_sites.append(site)
            bodies.append((decl, exprs, tuple(new_sites)))
        return replace(calls, bodies=tuple(bodies)) if moved else calls

    def classes(self, unit: CompilationUnit) -> Tuple[ClassShape, ...]:
        shapes = []
        for cls in unit.classes:
            t = self.registry.get(str(cls.qualified_name))
            if t is None:
                continue
            decl = self.registry.declaration_of(t)
            above = (decl.superclass, decl.interfaces)
            shapes.append((t, above, tuple(decl.methods), _supertypes(self.registry, t)))
        return tuple(shapes)


def _supertypes(registry: TypeRegistry, t: NamedType) -> Tuple[NamedType, ...]:
    """Every declared type above ``t``; unlike ``all_supertypes`` it
    tolerates a cyclic or dangling hierarchy, which a lenient load that
    skips checking can keep."""
    seen: Dict[NamedType, None] = {}
    stack = [t]
    while stack:
        for sup in registry.direct_supertypes(stack.pop()):
            if sup not in seen and sup is not t and registry.is_declared(sup):
                seen[sup] = None
                stack.append(sup)
    return tuple(seen)


def build_call_graph(
    registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    previous: Optional[CallGraph] = None,
    resolved: Collection[int] = (),
) -> CallGraph:
    """Build the corpus call graph from resolved compilation units.

    ``previous`` is the graph built after the units' previous resolution
    and ``resolved`` the ids of the units whose bodies were resolved
    since. A unit outside ``resolved`` keeps its walks and call sites
    from ``previous``. A CHA target set is reused unless its method's
    owner is a class whose supertypes or declared methods changed, was
    added or removed, or is a supertype of such a class before or after
    the change. The maps are ``previous``'s, patched for the changed
    units (see :func:`_patched_callers`). Without ``previous``
    everything is built afresh.
    """
    previous = previous if previous is not None else CallGraph()
    old_units = previous.units
    # An owner's memo depends only on the classes below it, the same in
    # both graphs while it is not affected, so the graphs share it.
    graph = CallGraph(targets=dict(previous.targets))
    builder = _Builder(registry, graph.targets)

    kept = {
        id(unit): old_units[id(unit)]
        for unit in units
        if id(unit) in old_units and id(unit) not in resolved
    }
    shapes = {id(unit): builder.classes(unit) for unit in units if id(unit) not in kept}

    # Classes that came, went or changed shape, and what lies above them.
    before = {
        shape[0]: shape
        for key, calls in old_units.items()
        if key not in kept
        for shape in calls.classes
    }
    after = {shape[0]: shape for unit_shapes in shapes.values() for shape in unit_shapes}
    affected: Set[NamedType] = set()
    for t in set(before) | set(after):
        old, new = before.get(t), after.get(t)
        if old != new:
            affected.add(t)
            for shape in (old, new):
                if shape is not None:
                    affected.update(shape[3])
    for owner in affected:
        graph.targets.pop(owner, None)

    for unit in units:
        calls = kept.get(id(unit))
        if calls is None:
            calls = builder.walk(unit, shapes[id(unit)])
        elif affected:
            calls = builder.retarget(calls, affected)
        graph.units[id(unit)] = calls

    # A unit changed if its share is new (walked or retargeted) or gone.
    changed = [calls for key, calls in graph.units.items() if old_units.get(key) is not calls]
    gone = [calls for key, calls in old_units.items() if graph.units.get(key) is not calls]
    graph.methods = dict(previous.methods)
    graph.calls_in = dict(previous.calls_in)
    graph.expressions = dict(previous.expressions)
    for calls in gone:
        for method, _ in calls.methods:
            graph.methods.pop(method, None)
        for decl, _, _ in calls.bodies:
            graph.expressions.pop(id(decl), None)
            graph.calls_in.pop(id(decl), None)
    for calls in changed:
        graph.methods.update(calls.methods)
        for decl, exprs, sites in calls.bodies:
            graph.expressions[id(decl)] = exprs
            if sites:
                graph.calls_in[id(decl)] = list(sites)

    # A caller list is in corpus order; kept units that moved relative
    # to each other (a sync of reordered texts) rebuild every list.
    same = [key for key, calls in graph.units.items() if old_units.get(key) is calls]
    moved = same != [key for key, calls in old_units.items() if graph.units.get(key) is calls]
    if old_units and not moved:
        graph.callers_of = _patched_callers(graph, previous, changed, gone)
    else:
        for calls in graph.units.values():
            for _, _, sites in calls.bodies:
                for site in sites:
                    for target in site.targets:
                        graph.callers_of.setdefault(target, []).append(site)
    return graph


def _patched_callers(
    graph: CallGraph,
    previous: CallGraph,
    changed: Sequence[UnitCalls],
    gone: Sequence[UnitCalls],
) -> Dict[Method, List[CallSite]]:
    """``graph``'s ``callers_of``, from ``previous``'s: only the lists of
    the targets a changed or gone share's call sites name are rebuilt,
    from the changed units and the unchanged units those lists held, in
    corpus order. Every other list holds only unchanged units' sites and
    stays the same object."""
    dirty: Dict[Method, List[CallSite]] = {}
    for calls in (*changed, *gone):
        for _, _, sites in calls.bodies:
            for site in sites:
                for target in site.targets:
                    dirty.setdefault(target, [])
    shares = list(graph.units.values())
    at = {id(decl): i for i, calls in enumerate(shares) for decl, _, _ in calls.bodies}
    walked = {id(calls) for calls in changed}
    naming = {i for i, calls in enumerate(shares) if id(calls) in walked}
    held = (site for target in dirty for site in previous.callers_of.get(target, ()))
    naming.update(at[id(site.caller)] for site in held if id(site.caller) in at)
    for i in sorted(naming):
        for _, _, sites in shares[i].bodies:
            for site in sites:
                for target in site.targets:
                    found = dirty.get(target)
                    if found is not None:
                        found.append(site)
    callers = dict(previous.callers_of)
    for target, sites in dirty.items():
        if sites:
            callers[target] = sites
        else:
            callers.pop(target, None)
    return callers
