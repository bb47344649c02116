"""Pretty-printer: mini-Java ASTs back to source.

A test helper: the suite uses it to check that the front end
round-trips, i.e. ``print(parse(text))`` re-parses to the same tree
(printing is a fixpoint after one normalization pass).
"""

from __future__ import annotations

from typing import List

from repro.minijava.ast import (
    AssignStmt,
    BinaryExpr,
    Block,
    BoolLit,
    CallExpr,
    CastExpr,
    CharLit,
    ClassDecl,
    CompilationUnit,
    Expr,
    ExprStmt,
    FieldAccessExpr,
    FieldDecl,
    IfStmt,
    IntLit,
    LocalVarDecl,
    MethodDecl,
    NewExpr,
    NullLit,
    ReturnStmt,
    Stmt,
    StringLit,
    ThisExpr,
    TypeName,
    TypeRef,
    UnaryExpr,
    VarRef,
    WhileStmt,
)

_INDENT = "  "

#: Binding strength for parenthesization, matching the parser's grammar.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}
_UNARY_LEVEL = 7
_POSTFIX_LEVEL = 8


def print_type_ref(ref: TypeRef) -> str:
    return ref.name + "[]" * ref.dims


def print_expression(expr: Expr) -> str:
    return _expr(expr, 0)


def _maybe_paren(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text


def _expr(expr: Expr, parent_level: int) -> str:
    if isinstance(expr, IntLit):
        return expr.text
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, CharLit):
        return f"'{expr.text}'"
    if isinstance(expr, StringLit):
        return f'"{expr.value}"'
    if isinstance(expr, NullLit):
        return "null"
    if isinstance(expr, ThisExpr):
        return "this"
    if isinstance(expr, (VarRef, TypeName)):
        return expr.name
    if isinstance(expr, FieldAccessExpr):
        receiver = _expr(expr.receiver, _POSTFIX_LEVEL)
        return f"{receiver}.{expr.name}"
    if isinstance(expr, CallExpr):
        args = ", ".join(_expr(a, 0) for a in expr.args)
        if expr.receiver is None:
            return f"{expr.name}({args})"
        receiver = _expr(expr.receiver, _POSTFIX_LEVEL)
        return f"{receiver}.{expr.name}({args})"
    if isinstance(expr, NewExpr):
        args = ", ".join(_expr(a, 0) for a in expr.args)
        return f"new {print_type_ref(expr.type_ref)}({args})"
    if isinstance(expr, CastExpr):
        body = f"({print_type_ref(expr.type_ref)}) {_expr(expr.operand, _UNARY_LEVEL)}"
        return _maybe_paren(body, _UNARY_LEVEL, parent_level)
    if isinstance(expr, UnaryExpr):
        body = f"{expr.op}{_expr(expr.operand, _UNARY_LEVEL)}"
        return _maybe_paren(body, _UNARY_LEVEL, parent_level)
    if isinstance(expr, BinaryExpr):
        level = _PRECEDENCE[expr.op]
        left = _expr(expr.left, level)
        # Right operand needs a strictly higher level (left associativity).
        right = _expr(expr.right, level + 1)
        return _maybe_paren(f"{left} {expr.op} {right}", level, parent_level)
    raise TypeError(f"cannot print {type(expr).__name__}")  # pragma: no cover


def _stmt_lines(stmt: Stmt, depth: int) -> List[str]:
    pad = _INDENT * depth
    if isinstance(stmt, Block):
        lines = [f"{pad}{{"]
        for s in stmt.statements:
            lines.extend(_stmt_lines(s, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, LocalVarDecl):
        init = f" = {print_expression(stmt.init)}" if stmt.init is not None else ""
        return [f"{pad}{print_type_ref(stmt.type_ref)} {stmt.name}{init};"]
    if isinstance(stmt, AssignStmt):
        return [f"{pad}{print_expression(stmt.target)} = {print_expression(stmt.value)};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{print_expression(stmt.expr)};"]
    if isinstance(stmt, ReturnStmt):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {print_expression(stmt.value)};"]
    if isinstance(stmt, IfStmt):
        lines = [f"{pad}if ({print_expression(stmt.condition)})"]
        lines.extend(_embedded_branch(stmt.then_branch, depth))
        if stmt.else_branch is not None:
            lines.append(f"{pad}else")
            lines.extend(_embedded_branch(stmt.else_branch, depth))
        return lines
    if isinstance(stmt, WhileStmt):
        lines = [f"{pad}while ({print_expression(stmt.condition)})"]
        lines.extend(_embedded_branch(stmt.body, depth))
        return lines
    raise TypeError(f"cannot print {type(stmt).__name__}")  # pragma: no cover


def _embedded_branch(stmt: Stmt, depth: int) -> List[str]:
    if isinstance(stmt, Block):
        return _stmt_lines(stmt, depth)
    return _stmt_lines(stmt, depth + 1)


def _member_lines(decl, depth: int) -> List[str]:
    pad = _INDENT * depth
    if isinstance(decl, FieldDecl):
        mods = _mods(decl.visibility, decl.static)
        init = f" = {print_expression(decl.init)}" if decl.init is not None else ""
        return [f"{pad}{mods}{print_type_ref(decl.type_ref)} {decl.name}{init};"]
    assert isinstance(decl, MethodDecl)
    mods = _mods(decl.visibility, decl.static)
    params = ", ".join(f"{print_type_ref(p.type_ref)} {p.name}" for p in decl.params)
    if decl.is_constructor:
        header = f"{pad}{mods}{decl.name}({params})"
    else:
        header = f"{pad}{mods}{print_type_ref(decl.return_type)} {decl.name}({params})"
    if decl.body is None:
        return [header + ";"]
    lines = [header + " {"]
    for s in decl.body.statements:
        lines.extend(_stmt_lines(s, depth + 1))
    lines.append(f"{pad}}}")
    return lines


def _mods(visibility: str, static: bool) -> str:
    parts = []
    if visibility != "public":
        parts.append(visibility)
    else:
        parts.append("public")
    if static:
        parts.append("static")
    return " ".join(parts) + " " if parts else ""


def print_class(decl: ClassDecl, depth: int = 0) -> str:
    pad = _INDENT * depth
    kind = "interface" if decl.is_interface else "class"
    header = f"{pad}public {kind} {decl.name}"
    if decl.is_interface and decl.implements:
        header += " extends " + ", ".join(print_type_ref(t) for t in decl.implements)
    else:
        if decl.extends is not None:
            header += f" extends {print_type_ref(decl.extends)}"
        if decl.implements:
            header += " implements " + ", ".join(
                print_type_ref(t) for t in decl.implements
            )
    lines = [header + " {"]
    for f in decl.fields:
        lines.extend(_member_lines(f, depth + 1))
    for m in decl.methods:
        lines.extend(_member_lines(m, depth + 1))
    lines.append(f"{pad}}}")
    return "\n".join(lines)


def print_unit(unit: CompilationUnit) -> str:
    """Print a whole compilation unit as mini-Java source."""
    lines: List[str] = []
    if unit.package:
        lines.append(f"package {unit.package};")
        lines.append("")
    for imp in unit.imports:
        lines.append(f"import {imp};")
    if unit.imports:
        lines.append("")
    for i, cls in enumerate(unit.classes):
        if i:
            lines.append("")
        lines.append(print_class(cls))
    return "\n".join(lines) + "\n"
