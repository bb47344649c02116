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


def field_access(field: Field) -> ElementaryJungloid:
    """Elementary jungloid for a field access ``λx. x.f : T → U``.

    Static fields take ``void`` input (they need no object).
    """
    if field.static:
        return ElementaryJungloid(
            kind=ElementaryKind.FIELD_ACCESS,
            input_type=VOID,
            output_type=field.type,
            member=field,
            flow_position=NO_INPUT,
        )
    return ElementaryJungloid(
        kind=ElementaryKind.FIELD_ACCESS,
        input_type=field.owner,
        output_type=field.type,
        member=field,
        flow_position=RECEIVER,
    )


def _call_variants(
    kind: ElementaryKind,
    member: Union[Method, Constructor],
    output_type: JavaType,
    receiver_type: Optional[JavaType],
) -> Tuple[ElementaryJungloid, ...]:
    """All elementary jungloids induced by one method/constructor.

    One variant per reference-typed flow position (receiver or parameter);
    a single ``void``-input variant when nothing can flow in.
    """
    params = member.parameters
    variants = []
    positions = []
    if receiver_type is not None:
        positions.append((RECEIVER, receiver_type))
    for i, p in enumerate(params):
        if is_reference(p.type):
            positions.append((i, p.type))
    for flow_position, input_type in positions:
        free = []
        if receiver_type is not None and flow_position != RECEIVER:
            free.append(FreeVariable(_free_name_for(receiver_type, 0), receiver_type))
        for i, p in enumerate(params):
            if i != flow_position:
                free.append(FreeVariable(_free_name_for(p.type, i + 1), p.type))
        variants.append(
            ElementaryJungloid(
                kind=kind,
                input_type=input_type,
                output_type=output_type,
                member=member,
                flow_position=flow_position,
                free_variables=tuple(free),
            )
        )
    if not positions:
        free = tuple(
            FreeVariable(_free_name_for(p.type, i + 1), p.type) for i, p in enumerate(params)
        )
        variants.append(
            ElementaryJungloid(
                kind=kind,
                input_type=VOID,
                output_type=output_type,
                member=member,
                flow_position=NO_INPUT,
                free_variables=free,
            )
        )
    return tuple(variants)


def static_call(method: Method) -> Tuple[ElementaryJungloid, ...]:
    """Elementary jungloids for a static method (Definition 2, bullet 2)."""
    if not method.static:
        raise ValueError(f"{method} is not static")
    return _call_variants(ElementaryKind.STATIC_CALL, method, method.return_type, None)


def instance_call(method: Method) -> Tuple[ElementaryJungloid, ...]:
    """Elementary jungloids for an instance method (receiver = a parameter)."""
    if method.static:
        raise ValueError(f"{method} is static")
    return _call_variants(
        ElementaryKind.INSTANCE_CALL, method, method.return_type, method.owner
    )


def constructor_call(ctor: Constructor) -> Tuple[ElementaryJungloid, ...]:
    """Elementary jungloids for a constructor invocation."""
    return _call_variants(ElementaryKind.CONSTRUCTOR, ctor, ctor.owner, None)


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
