"""Graph nodes and edges shared by the signature and jungloid graphs.

Signature-graph nodes are reference types (plus ``void``). The jungloid
graph adds **typestate nodes** (Section 4.2, Figure 6): fresh copies of a
type, such as ``Object-1``, that mark "an object in the state where this
particular downcast will succeed". A typestate node carries its underlying
type but is distinct from the plain type node, so mined downcasts only
apply to objects that took the mined path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..jungloids import ElementaryJungloid, ElementaryKind
from ..jungloids.elementary import Member, member_jungloid, member_kind
from ..typesystem import JavaType


@dataclass(frozen=True)
class TypestateNode:
    """A fresh node for an intermediate object of a mined example path."""

    base: JavaType
    tag: str  # unique per node, e.g. "Object-1"

    def __str__(self) -> str:
        return self.tag

    @property
    def display(self) -> str:
        return self.tag


#: A node of the (signature or jungloid) graph.
Node = Union[JavaType, TypestateNode]


def node_base_type(node: Node) -> JavaType:
    """The Java type an object at this node actually has."""
    if isinstance(node, TypestateNode):
        return node.base
    return node


def node_label(node: Node) -> str:
    """Stable display label (used by the DOT exporter and tests)."""
    if isinstance(node, TypestateNode):
        return node.tag
    return str(node)


class Edge:
    """A directed, labeled edge: one elementary jungloid between two nodes.

    For plain signature edges the node endpoints equal the elementary
    jungloid's input/output types; for mined-path edges the endpoints may
    be typestate nodes whose *base* types equal those types.

    An API member edge (:meth:`of_member`) holds its ``member`` and
    ``flow`` position and builds its jungloid when ``elementary`` is
    first read; other edges have ``member`` ``None``. ``cost_counts`` is
    what :meth:`~repro.jungloids.CostModel.total` charges: a member
    edge is handed its counts by the graph build, other edges read them
    off their step. Equality and hashing are by value, and nothing
    rebinds a field.
    """

    __slots__ = ("source", "target", "member", "flow", "elementary", "cost_counts")

    def __init__(self, source: Node, target: Node, elementary: ElementaryJungloid):
        self.source, self.target, self.elementary = source, target, elementary
        self.member = self.flow = None
        self.cost_counts = elementary.cost_counts

    @staticmethod
    def of_member(source: Node, target: Node, member: Member, flow: int, cost_counts) -> "Edge":
        return _UnbuiltEdge(source, target, member, flow, cost_counts)

    @property
    def kind(self) -> ElementaryKind:
        """The step's kind; a member edge reads it off its member."""
        return self.elementary.kind if self.member is None else member_kind(self.member)

    @property
    def is_widening(self) -> bool:
        return self.member is None and self.elementary.is_widening

    @property
    def is_downcast(self) -> bool:
        return self.member is None and self.elementary.is_downcast

    @property
    def search_length(self) -> int:
        """Unit length for the bounded search; widening edges are free."""
        return 0 if self.is_widening else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        if self.member is not None and other.member is not None:
            return self.flow == other.flow and self.member == other.member
        return self.elementary == other.elementary

    def __hash__(self) -> int:
        if self.member is None:
            step = self.elementary
            return hash((self.source, self.target, step.member, step.flow_position))
        return hash((self.source, self.target, self.member, self.flow))

    def __repr__(self) -> str:
        return f"Edge({self.source!r}, {self.target!r}, {self.elementary!r})"

    def __str__(self) -> str:
        return f"{node_label(self.source)} --[{self.elementary.render('x')}]--> {node_label(self.target)}"


class _UnbuiltEdge(Edge):
    """A member edge before its first ``elementary`` read, which builds
    the jungloid into the slot and makes the instance a plain
    :class:`Edge`, so later reads are ordinary slot loads."""

    __slots__ = ()

    def __init__(self, source: Node, target: Node, member: Member, flow: int, cost_counts):
        self.source, self.target, self.member, self.flow = source, target, member, flow
        self.cost_counts = cost_counts

    def __getattr__(self, name: str):
        if name != "elementary":
            raise AttributeError(name)
        self.elementary = elementary = member_jungloid(self.member, self.flow)
        self.__class__ = Edge
        return elementary
