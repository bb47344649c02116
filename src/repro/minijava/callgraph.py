"""Class-hierarchy-analysis (CHA) call graph for mini-Java corpora.

The extraction slice of Section 4.2 is interprocedural: when the backward
walk reaches a method parameter, it continues into the arguments at every
call site that may invoke that method. "May invoke" is approximated
conservatively with CHA, exactly as the paper describes ("a conservative
approximation of the call graph based on the type hierarchy"): a virtual
call on static type ``T`` may dispatch to the declared method and to any
override on a subtype of ``T``.

A rebuild after a corpus edit reuses the previous graph
(:func:`build_call_graph` with ``previous``): a unit whose bodies were
not resolved again keeps its body walks and call sites, a CHA target
set is recomputed only when a corpus class beneath its method's owner
changed its supertypes or declared methods, or came or went, and only
the caller lists of targets a changed unit's call sites name are
rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from ..typesystem import Method, NamedType, TypeRegistry
from .ast import CallExpr, ClassDecl, CompilationUnit, Expr, MethodDecl, method_expressions


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

    def walk(self, unit: CompilationUnit) -> Tuple[Body, ...]:
        bodies = []
        for cls in unit.classes:
            for decl in cls.methods:
                if decl.body is None:
                    continue
                exprs = tuple(method_expressions(decl))
                sites = tuple(
                    CallSite(decl, expr, self.targets_of(expr.resolved_method))
                    for expr in exprs
                    if isinstance(expr, CallExpr) and expr.resolved_method is not None
                )
                bodies.append((decl, exprs, sites))
        return tuple(bodies)

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
        return UnitCalls(calls.unit, tuple(bodies), calls.classes) if moved else calls

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
    the change. ``callers_of`` starts from the previous graph's (see
    :func:`_reused_callers`). Without ``previous`` everything is built
    afresh.
    """
    graph = CallGraph()
    old_units = previous.units if previous is not None else {}
    if previous is not None:
        # An owner's memo depends only on the classes below it, the same
        # in both graphs while it is not affected, so the graphs share it.
        graph.targets = dict(previous.targets)
    builder = _Builder(registry, graph.targets)

    kept: Dict[int, UnitCalls] = {}
    fresh: List[CompilationUnit] = []
    for unit in units:
        calls = old_units.get(id(unit))
        if calls is not None and id(unit) not in resolved:
            kept[id(unit)] = calls
        else:
            fresh.append(unit)
    shapes = {id(unit): builder.classes(unit) for unit in fresh}

    # Classes that came, went or changed shape, and what lies above them.
    before: Dict[NamedType, ClassShape] = {}
    for key, calls in old_units.items():
        if key not in kept:
            for shape in calls.classes:
                before[shape[0]] = shape
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
            calls = UnitCalls(unit, builder.walk(unit), shapes[id(unit)])
        elif affected:
            calls = builder.retarget(calls, affected)
        graph.units[id(unit)] = calls
        for decl, exprs, sites in calls.bodies:
            if decl.resolved_method is not None:
                graph.methods[decl.resolved_method] = decl
            graph.expressions[id(decl)] = exprs
            if sites:
                graph.calls_in[id(decl)] = list(sites)
    callers = _reused_callers(graph, previous) if previous is not None else None
    if callers is None:
        callers = {}
        for calls in graph.units.values():
            for _, _, sites in calls.bodies:
                for site in sites:
                    for target in site.targets:
                        callers.setdefault(target, []).append(site)
    graph.callers_of = callers
    return graph


def _reused_callers(
    graph: CallGraph, previous: CallGraph
) -> Optional[Dict[Method, List[CallSite]]]:
    """``graph``'s ``callers_of``, from ``previous``'s.

    A unit changed if its share is not the previous graph's (it was
    walked or retargeted again) or it is gone. Only the lists of the
    targets a changed unit's call sites name, before or after, are
    rebuilt, in corpus order; every other list holds only unchanged
    units' sites and keeps its place. A rebuilt target goes where a
    fresh build puts it, at its first sight in corpus order: the kept
    targets are already in that order, so a binary search over them
    finds its place. ``None`` when the kept units moved relative to
    each other.
    """
    old, new = previous.units, graph.units
    before = {key: i for i, key in enumerate(old)}
    shares = list(new.values())
    changed: List[int] = []
    last = -1
    for i, (key, calls) in enumerate(new.items()):
        if old.get(key) is not calls:
            changed.append(i)
        elif before[key] < last:
            return None
        else:
            last = before[key]
    dirty: Dict[Method, List[CallSite]] = {}
    moved = [shares[i] for i in changed]
    moved.extend(calls for key, calls in old.items() if new.get(key) is not calls)
    for calls in moved:
        for _, _, sites in calls.bodies:
            for site in sites:
                for target in site.targets:
                    if target not in dirty:
                        dirty[target] = []
    # The unchanged units whose sites a rebuilt list held.
    at = {id(decl): i for i, calls in enumerate(shares) for decl, _, _ in calls.bodies}
    naming = set(changed)
    for target in dirty:
        for site in previous.callers_of.get(target, ()):
            i = at.get(id(site.caller))
            if i is not None:
                naming.add(i)
    for i in sorted(naming):
        for _, _, sites in shares[i].bodies:
            for site in sites:
                for target in site.targets:
                    found = dirty.get(target)
                    if found is not None:
                        found.append(site)

    order: Dict[int, Dict[int, int]] = {}

    def rank(target: Method, sites: List[CallSite]) -> Tuple[int, int, int]:
        """Where a fresh build first sees ``target``: its first site's
        unit, the site's place among that unit's sites, the target's
        place among the site's targets."""
        first = sites[0]
        i = at[id(first.caller)]
        places = order.get(i)
        if places is None:
            places = order[i] = {
                id(site): n
                for n, site in enumerate(
                    site for _, _, body_sites in shares[i].bodies for site in body_sites
                )
            }
        place = next(k for k, t in enumerate(first.targets) if t is target or t == target)
        return (i, places[id(first)], place)

    callers = dict(previous.callers_of)
    for target, sites in dirty.items():
        if sites:
            callers[target] = sites  # an old key keeps its place
        else:
            callers.pop(target, None)
    rebuilt = {id(sites) for sites in dirty.values()}
    items = list(callers.items())
    if all(
        (index == 0 or rank(*items[index - 1]) < rank(*items[index]))
        and (index + 1 == len(items) or rank(*items[index]) < rank(*items[index + 1]))
        for index, (_, sites) in enumerate(items)
        if id(sites) in rebuilt
    ):
        return callers
    # A rebuilt key is out of place: merge the rebuilt keys, in first-sight
    # order, into the kept ones, which are in first-sight order already.
    kept = [item for item in items if id(item[1]) not in rebuilt]
    placed = sorted(
        ((rank(target, sites), target) for target, sites in dirty.items() if sites),
        key=lambda entry: entry[0],
    )
    merged: List[Tuple[Method, List[CallSite]]] = []
    lo = 0
    for here, target in placed:
        start, hi = lo, len(kept)
        while lo < hi:
            mid = (lo + hi) // 2
            if rank(*kept[mid]) < here:
                lo = mid + 1
            else:
                hi = mid
        merged.extend(kept[start:lo])
        merged.append((target, dirty[target]))
    merged.extend(kept[lo:])
    # Re-insert from the first key out of place on: ``popitem`` takes the
    # last entries without hashing their keys, so only the tail rehashes.
    start = next(i for i, (item, want) in enumerate(zip(items, merged)) if item[0] is not want[0])
    for _ in range(len(items) - start):
        callers.popitem()
    callers.update(merged[start:])
    return callers
