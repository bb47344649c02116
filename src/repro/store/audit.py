"""Post-load integrity audit for deserialized graph bundles.

A snapshot that parses is not necessarily a snapshot that is *right*:
the registry may have drifted since it was written, or a subtle
corruption may survive JSON parsing. The
audit re-derives every invariant the engine relies on:

* every mined step's member (field / method / constructor) still
  resolves in the registry;
* mined chains compose (adjacent output/input types equal);
* widening steps really widen and downcast steps really narrow under
  the registry's subtype relation;
* every graph edge endpoint's base type is declared in the registry;
* node / edge / type / mined counts match the manifest that was written
  at save time.

Issues are data, not exceptions — callers decide whether a dirty audit
is fatal (strict load) or merely reportable (diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from ..graph.nodes import node_base_type
from ..jungloids import ElementaryKind, Jungloid
from ..typesystem import NamedType, TypeKind, TypeRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..graph import JungloidGraph
    from .snapshot import SnapshotManifest

#: Issue kinds, for filtering in tests and reports.
KIND_UNKNOWN_MEMBER = "unknown-member"
KIND_BROKEN_CHAIN = "broken-chain"
KIND_BAD_WIDENING = "bad-widening"
KIND_BAD_DOWNCAST = "bad-downcast"
KIND_UNRESOLVED_ENDPOINT = "unresolved-endpoint"
KIND_COUNT_MISMATCH = "count-mismatch"


@dataclass(frozen=True)
class IntegrityIssue:
    """One violated invariant found by the audit."""

    kind: str
    where: str  #: which jungloid / edge / counter the issue concerns
    detail: str

    def __str__(self) -> str:
        return f"{self.where} [{self.kind}]: {self.detail}"


def _audit_step(
    registry: TypeRegistry, where: str, step, issues: List[IntegrityIssue]
) -> None:
    kind = step.kind
    if kind is ElementaryKind.WIDENING:
        if isinstance(step.input_type, NamedType) and isinstance(
            step.output_type, NamedType
        ):
            if not registry.is_subtype(step.input_type, step.output_type):
                issues.append(
                    IntegrityIssue(
                        KIND_BAD_WIDENING,
                        where,
                        f"{step.input_type} does not widen to {step.output_type}",
                    )
                )
        return
    if kind is ElementaryKind.DOWNCAST:
        t_in, t_out = step.input_type, step.output_type
        if isinstance(t_in, NamedType) and isinstance(t_out, NamedType):
            if not registry.is_declared(t_in) or not registry.is_declared(t_out):
                issues.append(
                    IntegrityIssue(
                        KIND_UNRESOLVED_ENDPOINT,
                        where,
                        f"downcast endpoint undeclared: ({t_out}) {t_in}",
                    )
                )
                return
            # A Java downcast narrows to a subtype; casts through an
            # interface (or from Object) are the only other legal shapes.
            narrowing = registry.is_subtype(t_out, t_in)
            via_interface = (
                registry.declaration_of(t_in).kind is TypeKind.INTERFACE
                or t_in == registry.object_type
            )
            if not narrowing and not via_interface:
                issues.append(
                    IntegrityIssue(
                        KIND_BAD_DOWNCAST,
                        where,
                        f"({t_out}) applied to unrelated type {t_in}",
                    )
                )
        return
    member = step.member
    if member is None:
        return
    owner = member.owner
    if not registry.is_declared(owner):
        issues.append(
            IntegrityIssue(
                KIND_UNKNOWN_MEMBER, where, f"owner type {owner} not in registry"
            )
        )
        return
    from ..typesystem import Constructor, Field, Method

    if isinstance(member, Field):
        if registry.find_field(owner, member.name) is None:
            issues.append(
                IntegrityIssue(
                    KIND_UNKNOWN_MEMBER, where, f"field {owner}.{member.name} vanished"
                )
            )
    elif isinstance(member, Method):
        found = [
            m
            for m in registry.find_method(owner, member.name)
            if m.parameter_types == member.parameter_types
        ]
        if not found:
            issues.append(
                IntegrityIssue(
                    KIND_UNKNOWN_MEMBER,
                    where,
                    f"method {owner}.{member.name}{list(map(str, member.parameter_types))}"
                    " vanished",
                )
            )
    elif isinstance(member, Constructor):
        found = [
            c
            for c in registry.constructors_of(owner)
            if c.parameter_types == member.parameter_types
        ]
        if not found:
            issues.append(
                IntegrityIssue(
                    KIND_UNKNOWN_MEMBER,
                    where,
                    f"constructor {owner}({list(map(str, member.parameter_types))})"
                    " vanished",
                )
            )


def audit_mined(
    registry: TypeRegistry, mined: Iterable[Jungloid]
) -> List[IntegrityIssue]:
    """Check every mined jungloid against the registry's current truth."""
    issues: List[IntegrityIssue] = []
    for i, jungloid in enumerate(mined):
        where = f"mined[{i}]"
        steps = jungloid.steps
        for a, b in zip(steps, steps[1:]):
            if a.output_type != b.input_type:
                issues.append(
                    IntegrityIssue(
                        KIND_BROKEN_CHAIN,
                        where,
                        f"{a.output_type} feeds step expecting {b.input_type}",
                    )
                )
        for step in steps:
            _audit_step(registry, where, step, issues)
    return issues


def audit_graph(registry: TypeRegistry, graph: "JungloidGraph") -> List[IntegrityIssue]:
    """Check that every edge endpoint resolves in the registry.

    Every endpoint is a node, so the check runs once per node; the edges
    are walked only to name the ones that touch an undeclared node, one
    issue per such endpoint, in edge order.
    """
    undeclared = {
        node for node in graph.nodes if not registry.is_declared(node_base_type(node))
    }
    if not undeclared:
        return []
    issues: List[IntegrityIssue] = []
    for edge in graph.edges():
        for node in (edge.source, edge.target):
            if node in undeclared:
                issues.append(
                    IntegrityIssue(
                        KIND_UNRESOLVED_ENDPOINT,
                        str(edge),
                        f"endpoint type {node_base_type(node)} not in registry",
                    )
                )
    return issues


def audit_counts(
    registry: TypeRegistry,
    mined: Sequence[Jungloid],
    manifest: "SnapshotManifest",
    graph: Optional["JungloidGraph"] = None,
) -> List[IntegrityIssue]:
    """Check the live object counts against the manifest written at save."""
    issues: List[IntegrityIssue] = []

    def check(counter: str, expected: int, actual: int) -> None:
        if expected != actual:
            issues.append(
                IntegrityIssue(
                    KIND_COUNT_MISMATCH,
                    counter,
                    f"manifest says {expected}, loaded {actual}",
                )
            )

    check("type_count", manifest.type_count, len(registry))
    check("mined_count", manifest.mined_count, len(mined))
    if graph is not None:
        check("node_count", manifest.node_count, graph.node_count())
        check("edge_count", manifest.edge_count, graph.adjacency_edge_count())
    return issues


def audit_bundle(
    registry: TypeRegistry,
    mined: Sequence[Jungloid],
    manifest: "SnapshotManifest",
    graph: "JungloidGraph",
) -> List[IntegrityIssue]:
    """The full post-load audit; an empty list means the bundle is sound."""
    issues = audit_mined(registry, mined) + audit_graph(registry, graph)
    return issues + audit_counts(registry, mined, manifest, graph)
