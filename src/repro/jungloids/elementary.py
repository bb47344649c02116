"""Elementary jungloids (Definition 2 of the paper).

An elementary jungloid is a typed unary expression ``λx.e : t_in → t_out``.
The paper defines six kinds for Java:

* field access,
* static method (or constructor) invocation — one elementary jungloid per
  class-typed parameter, the others becoming free variables; zero-argument
  static methods and constructors get input type ``void``,
* instance method invocation — the receiver is treated as another
  parameter,
* widening reference conversion (no syntax, cost-free),
* downcast (excluded from the signature graph, introduced by mining).

Free variables cannot be bound during synthesis; they surface in generated
code as extra declarations the user must fill (typically with a follow-up
query, Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

from ..typesystem import (
    Constructor,
    Field,
    JavaType,
    Method,
    VOID,
    is_reference,
)

#: Flow position marker: the input object is the method receiver.
RECEIVER = -1
#: Flow position marker: there is no input object (``void`` input).
NO_INPUT = -2

#: Stands for the input expression when a step's rendering is split.
_HOLE = "\x00"


class ElementaryKind(Enum):
    """The six elementary-jungloid kinds of Section 2.1."""

    FIELD_ACCESS = "field"
    STATIC_CALL = "static"
    CONSTRUCTOR = "new"
    INSTANCE_CALL = "call"
    WIDENING = "widen"
    DOWNCAST = "cast"


@dataclass(frozen=True)
class FreeVariable:
    """A parameter (or receiver) left unbound by synthesis."""

    name: str
    type: JavaType

    def __str__(self) -> str:
        return f"{self.type} {self.name}"


@dataclass(frozen=True)
class ElementaryJungloid:
    """One typed unary expression, an edge of the signature graph.

    ``flow_position`` says where the input object plugs in: ``RECEIVER``
    for the receiver of an instance call, a parameter index for calls and
    constructors, ``NO_INPUT`` for ``void``-input expressions. Field access
    and conversions always flow through the receiver/operand.
    """

    kind: ElementaryKind
    input_type: JavaType
    output_type: JavaType
    member: Optional[Union[Field, Method, Constructor]] = None
    flow_position: int = RECEIVER
    free_variables: Tuple[FreeVariable, ...] = ()

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    @property
    def is_widening(self) -> bool:
        return self.kind is ElementaryKind.WIDENING

    @property
    def is_downcast(self) -> bool:
        return self.kind is ElementaryKind.DOWNCAST

    @property
    def has_input(self) -> bool:
        return self.flow_position != NO_INPUT

    def reference_free_variables(self) -> Tuple[FreeVariable, ...]:
        """Free variables of reference type (these cost extra in ranking)."""
        return tuple(v for v in self.free_variables if is_reference(v.type))

    @property
    def cost_counts(self) -> Tuple[bool, int, int]:
        """``(is_widening, free variables, reference-typed free
        variables)``: what :meth:`~repro.jungloids.CostModel.total`
        charges for this step."""
        return self.is_widening, len(self.free_variables), len(self.reference_free_variables())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, input_expr: str, free_names: Optional[Sequence[str]] = None) -> str:
        """Render this elementary jungloid as a Java expression.

        ``input_expr`` is the (already rendered) expression for the input
        object; ``free_names`` supplies names for the free variables in
        declaration order (defaults to their recorded names).
        """
        names = list(free_names) if free_names is not None else [v.name for v in self.free_variables]
        if len(names) != len(self.free_variables):
            raise ValueError(
                f"expected {len(self.free_variables)} free-variable names, got {len(names)}"
            )
        if self.kind is ElementaryKind.WIDENING:
            return input_expr
        if self.kind is ElementaryKind.DOWNCAST:
            return f"({self.output_type}) {input_expr}"
        if self.kind is ElementaryKind.FIELD_ACCESS:
            assert isinstance(self.member, Field)
            if self.member.static:
                return f"{self.member.owner}.{self.member.name}"
            return f"{input_expr}.{self.member.name}"
        if self.kind is ElementaryKind.CONSTRUCTOR:
            assert isinstance(self.member, Constructor)
            args = self._argument_list(input_expr, names, len(self.member.parameters))
            return f"new {self.member.owner}({', '.join(args)})"
        if self.kind is ElementaryKind.STATIC_CALL:
            assert isinstance(self.member, Method)
            args = self._argument_list(input_expr, names, len(self.member.parameters))
            return f"{self.member.owner}.{self.member.name}({', '.join(args)})"
        if self.kind is ElementaryKind.INSTANCE_CALL:
            assert isinstance(self.member, Method)
            if self.flow_position == RECEIVER:
                receiver = input_expr
                args = list(names)
            else:
                receiver = names[0]
                args = self._argument_list(
                    input_expr, names[1:], len(self.member.parameters)
                )
            return f"{receiver}.{self.member.name}({', '.join(args)})"
        raise AssertionError(f"unhandled kind {self.kind}")  # pragma: no cover

    @cached_property
    def render_parts(self) -> Optional[Tuple[str, str]]:
        """``(pre, post)`` with ``render(e) == pre + e + post`` for every
        input expression ``e``, or ``None`` when the rendering does not
        embed its input exactly once (a static field ignores it).

        Rendering a path concatenates these instead of re-formatting
        each step; the cache sits in the instance ``__dict__``, outside
        the dataclass fields, so equality and hashing are unaffected.
        """
        text = self.render(_HOLE)
        if text.count(_HOLE) != 1:
            return None
        pre, _, post = text.partition(_HOLE)
        return pre, post

    def _argument_list(self, input_expr: str, names: Sequence[str], n_params: int) -> list:
        """Interleave the input expression with free-variable names."""
        args = []
        free_iter = iter(names)
        for i in range(n_params):
            if i == self.flow_position:
                args.append(input_expr)
            else:
                args.append(next(free_iter))
        return args

    def describe(self) -> str:
        """A compact human-readable form, e.g. ``λx. x.getTable() : TableViewer → Table``."""
        body = self.render("x")
        return f"λx. {body} : {self.input_type} → {self.output_type}"

    def __str__(self) -> str:
        return self.describe()


def _free_name_for(t: JavaType, index: int) -> str:
    return t.variable_stem + str(index)


#: A member that induces elementary jungloids.
Member = Union[Field, Method, Constructor]


def member_output_type(member: Member) -> JavaType:
    """The type every elementary jungloid of ``member`` produces."""
    if isinstance(member, Field):
        return member.type
    return member.owner if isinstance(member, Constructor) else member.return_type


def member_kind(member: Member) -> ElementaryKind:
    """The kind of every elementary jungloid ``member`` induces."""
    if isinstance(member, Field):
        return ElementaryKind.FIELD_ACCESS
    if isinstance(member, Constructor):
        return ElementaryKind.CONSTRUCTOR
    return ElementaryKind.STATIC_CALL if member.static else ElementaryKind.INSTANCE_CALL


def _has_receiver(member: Member) -> bool:
    return isinstance(member, Method) and not member.static


def flow_positions(member: Member) -> Tuple[Tuple[int, JavaType], ...]:
    """``(flow position, input type)`` of each elementary jungloid that
    ``member`` induces, in variant order.

    The receiver comes first (instance members), then each
    reference-typed parameter; a lone ``(NO_INPUT, void)`` stands for a
    member nothing can flow into (static fields, static methods and
    constructors without a reference-typed parameter).
    """
    if isinstance(member, Field):
        return ((NO_INPUT, VOID),) if member.static else ((RECEIVER, member.owner),)
    positions = [(i, p.type) for i, p in enumerate(member.parameters) if is_reference(p.type)]
    if _has_receiver(member):
        positions.insert(0, (RECEIVER, member.owner))
    return tuple(positions) or ((NO_INPUT, VOID),)


def free_variable_counts(member: Member, positions) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """``(all, reference-typed)`` free variables of ``member``'s jungloids at
    a negative flow position, then at a parameter (it leaves the free list,
    a method's receiver joins it), given ``positions = flow_positions(member)``:
    one per reference-typed parameter, after the receiver's or ``NO_INPUT``."""
    n_free, first = len(getattr(member, "parameters", ())), positions[0][0]
    n_reference, shift = len(positions) - (first < 0), (first == RECEIVER) - 1
    return (n_free, n_reference), (n_free + shift, n_reference + shift)


def _variants(
    member: Member, positions: Sequence[Tuple[int, JavaType]]
) -> Tuple[ElementaryJungloid, ...]:
    """``member``'s elementary jungloids at ``positions`` (entries of
    :func:`flow_positions`).

    They share one :class:`FreeVariable` per parameter, and one for the
    receiver when a parameter takes the flow; each variant's tuple is a
    slice of these, in declaration order.
    """
    kind = member_kind(member)
    params = getattr(member, "parameters", ())
    free = tuple(FreeVariable(_free_name_for(p.type, i + 1), p.type) for i, p in enumerate(params))
    receiver: Tuple[FreeVariable, ...] = ()
    if _has_receiver(member) and any(flow >= 0 for flow, _ in positions):
        receiver = (FreeVariable(_free_name_for(member.owner, 0), member.owner),)
    t_out = member_output_type(member)
    return tuple(
        ElementaryJungloid(
            kind, t_in, t_out, member, flow,
            free if flow < 0 else receiver + free[:flow] + free[flow + 1 :],
        )
        for flow, t_in in positions
    )


def member_jungloid(member: Member, flow: int) -> ElementaryJungloid:
    """The one elementary jungloid of ``member`` whose input flows in at
    ``flow``; :class:`ValueError` when ``flow`` is not one of
    :func:`flow_positions`."""
    chosen = [position for position in flow_positions(member) if position[0] == flow]
    if not chosen:
        raise ValueError(f"no call variant with flow position {flow}")
    return _variants(member, chosen)[0]


def field_access(field: Field) -> ElementaryJungloid:
    """Elementary jungloid for a field access ``λx. x.f : T → U``.

    Static fields take ``void`` input (they need no object).
    """
    return _variants(field, flow_positions(field))[0]


def static_call(method: Method) -> Tuple[ElementaryJungloid, ...]:
    """Elementary jungloids for a static method (Definition 2, bullet 2)."""
    if not method.static:
        raise ValueError(f"{method} is not static")
    return _variants(method, flow_positions(method))


def instance_call(method: Method) -> Tuple[ElementaryJungloid, ...]:
    """Elementary jungloids for an instance method (receiver = a parameter)."""
    if method.static:
        raise ValueError(f"{method} is static")
    return _variants(method, flow_positions(method))


def constructor_call(ctor: Constructor) -> Tuple[ElementaryJungloid, ...]:
    """Elementary jungloids for a constructor invocation."""
    return _variants(ctor, flow_positions(ctor))


def widening(sub: JavaType, sup: JavaType) -> ElementaryJungloid:
    """The cost-free widening conversion ``λx. x : T → U`` for ``T <: U``."""
    return ElementaryJungloid(
        kind=ElementaryKind.WIDENING,
        input_type=sub,
        output_type=sup,
        flow_position=RECEIVER,
    )


def downcast(sup: JavaType, sub: JavaType) -> ElementaryJungloid:
    """The downcast ``λx. (U) x : T → U`` for ``U <: T``."""
    return ElementaryJungloid(
        kind=ElementaryKind.DOWNCAST,
        input_type=sup,
        output_type=sub,
        flow_position=RECEIVER,
    )
