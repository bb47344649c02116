"""Abstract syntax trees for mini-Java corpus programs.

Expression nodes carry a mutable ``resolved_type`` (a
:class:`~repro.typesystem.JavaType`) and, for calls / field accesses /
``new``, a ``resolved_member``, both filled in by the resolver. The miner
reads these annotations when it slices backward from casts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..typesystem import Constructor, Field as TsField, JavaType, Method


@dataclass(frozen=True)
class Position:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


UNKNOWN_POSITION = Position(0, 0)


@dataclass(frozen=True)
class TypeRef:
    """A source-level type reference (unresolved name + array dims)."""

    name: str
    dims: int = 0
    position: Position = UNKNOWN_POSITION

    def __str__(self) -> str:
        return self.name + "[]" * self.dims


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass
class Expr:
    """Base expression; subclasses set ``position`` in their constructors."""

    position: Position = field(default=UNKNOWN_POSITION, kw_only=True)
    resolved_type: Optional[JavaType] = field(default=None, kw_only=True)


@dataclass
class IntLit(Expr):
    text: str = "0"


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class CharLit(Expr):
    text: str = ""


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class NullLit(Expr):
    pass


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class VarRef(Expr):
    """A bare identifier; resolution decides local / param / field."""

    name: str = ""
    #: Filled by the resolver: "local", "param", or "field".
    resolved_kind: Optional[str] = None
    resolved_field: Optional[TsField] = None


@dataclass
class TypeName(Expr):
    """A (possibly dotted) name resolved to a *type*, e.g. the ``JavaCore``
    in ``JavaCore.createCompilationUnitFrom(file)``."""

    name: str = ""
    #: The name chain the resolver folded into this node. Resolving the
    #: AST again decides from it, as a fresh parse would.
    folded_from: Optional[Expr] = field(default=None, compare=False, repr=False)


@dataclass
class FieldAccessExpr(Expr):
    receiver: Expr = None  # type: ignore[assignment]
    name: str = ""
    resolved_field: Optional[TsField] = None


@dataclass
class CallExpr(Expr):
    """A method call; ``receiver is None`` means an unqualified call on
    ``this`` (or a static method of the enclosing class)."""

    receiver: Optional[Expr] = None
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    resolved_method: Optional[Method] = None

    @property
    def is_static_call(self) -> bool:
        return self.resolved_method is not None and self.resolved_method.static


@dataclass
class NewExpr(Expr):
    type_ref: TypeRef = None  # type: ignore[assignment]
    args: List[Expr] = field(default_factory=list)
    resolved_constructor: Optional[Constructor] = None


@dataclass
class CastExpr(Expr):
    type_ref: TypeRef = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]
    #: Filled by the resolver: the static type of the operand.
    operand_type: Optional[JavaType] = None

    @property
    def is_downcast(self) -> bool:
        """True when this narrows (operand type is a strict supertype)."""
        return (
            self.resolved_type is not None
            and self.operand_type is not None
            and self.resolved_type != self.operand_type
        )


@dataclass
class BinaryExpr(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class UnaryExpr(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass
class Stmt:
    position: Position = field(default=UNKNOWN_POSITION, kw_only=True)


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class LocalVarDecl(Stmt):
    type_ref: TypeRef = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expr] = None
    resolved_type: Optional[JavaType] = None


@dataclass
class AssignStmt(Stmt):
    """``target = value;`` — target is a variable or field reference."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class IfStmt(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    then_branch: Stmt = None  # type: ignore[assignment]
    else_branch: Optional[Stmt] = None


@dataclass
class WhileStmt(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------


@dataclass
class ParamDecl:
    type_ref: TypeRef
    name: str
    resolved_type: Optional[JavaType] = None


@dataclass
class MethodDecl:
    name: str
    return_type: TypeRef
    params: List[ParamDecl]
    body: Optional[Block]
    static: bool = False
    visibility: str = "public"
    is_constructor: bool = False
    position: Position = UNKNOWN_POSITION
    resolved_method: Optional[Method] = None
    resolved_constructor: Optional[Constructor] = None
    #: Filled by the resolver: the declaring class's type.
    owner_type: Optional[JavaType] = None

    @property
    def is_abstract(self) -> bool:
        return self.body is None


@dataclass
class FieldDecl:
    type_ref: TypeRef
    name: str
    init: Optional[Expr] = None
    static: bool = False
    visibility: str = "public"
    position: Position = UNKNOWN_POSITION
    resolved_type: Optional[JavaType] = None


@dataclass
class ClassDecl:
    name: str
    extends: Optional[TypeRef] = None
    implements: List[TypeRef] = field(default_factory=list)
    fields: List[FieldDecl] = field(default_factory=list)
    methods: List[MethodDecl] = field(default_factory=list)
    is_interface: bool = False
    position: Position = UNKNOWN_POSITION
    qualified_name: Optional[str] = None


@dataclass
class CompilationUnit:
    package: str = ""
    imports: List[str] = field(default_factory=list)
    classes: List[ClassDecl] = field(default_factory=list)
    source: str = "<minijava>"


# ----------------------------------------------------------------------
# Traversal helpers
# ----------------------------------------------------------------------


def child_expressions(expr: Expr) -> Tuple[Expr, ...]:
    """Direct sub-expressions of ``expr`` (for generic walks)."""
    if isinstance(expr, FieldAccessExpr):
        return (expr.receiver,)
    if isinstance(expr, CallExpr):
        recv = (expr.receiver,) if expr.receiver is not None else ()
        return recv + tuple(expr.args)
    if isinstance(expr, NewExpr):
        return tuple(expr.args)
    if isinstance(expr, CastExpr):
        return (expr.operand,)
    if isinstance(expr, BinaryExpr):
        return (expr.left, expr.right)
    if isinstance(expr, UnaryExpr):
        return (expr.operand,)
    return ()


def walk_expressions(expr: Expr):
    """Yield ``expr`` and all descendants, pre-order."""
    yield expr
    for child in child_expressions(expr):
        yield from walk_expressions(child)


def statement_expressions(stmt: Stmt) -> Tuple[Expr, ...]:
    """Direct expressions of one statement (not recursing into blocks)."""
    if isinstance(stmt, LocalVarDecl):
        return (stmt.init,) if stmt.init is not None else ()
    if isinstance(stmt, AssignStmt):
        return (stmt.target, stmt.value)
    if isinstance(stmt, ExprStmt):
        return (stmt.expr,)
    if isinstance(stmt, ReturnStmt):
        return (stmt.value,) if stmt.value is not None else ()
    if isinstance(stmt, IfStmt):
        return (stmt.condition,)
    if isinstance(stmt, WhileStmt):
        return (stmt.condition,)
    return ()


def walk_statements(stmt: Stmt):
    """Yield ``stmt`` and all nested statements, pre-order."""
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.statements:
            yield from walk_statements(s)
    elif isinstance(stmt, IfStmt):
        yield from walk_statements(stmt.then_branch)
        if stmt.else_branch is not None:
            yield from walk_statements(stmt.else_branch)
    elif isinstance(stmt, WhileStmt):
        yield from walk_statements(stmt.body)


def method_expressions(method: MethodDecl):
    """Yield every expression anywhere in a method body."""
    if method.body is None:
        return
    for stmt in walk_statements(method.body):
        for top in statement_expressions(stmt):
            yield from walk_expressions(top)
