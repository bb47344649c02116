"""A light type checker for resolved mini-Java programs.

The resolver already types every expression; this pass validates the
statement-level rules the corpus must obey so that mined examples are
trustworthy: initializer/assignment compatibility, return types, boolean
conditions, and cast plausibility (a cast must relate the two types —
unrelated-class casts would make the mined "viable" jungloids nonsense).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..typesystem import (
    JavaType,
    NamedType,
    PRIMITIVES,
    TypeKind,
    TypeRegistry,
    VOID,
    is_assignable,
    is_reference,
)
from .ast import (
    AssignStmt,
    Block,
    CastExpr,
    ClassDecl,
    CompilationUnit,
    Expr,
    IfStmt,
    LocalVarDecl,
    MethodDecl,
    Position,
    ReturnStmt,
    Stmt,
    WhileStmt,
    method_expressions,
    walk_statements,
)
from .errors import MjTypeError
from .resolver import ResolutionCache


@dataclass(frozen=True)
class TypeIssue:
    """One diagnostic produced by the checker."""

    message: str
    source: str
    position: Position

    def __str__(self) -> str:
        return f"{self.source}:{self.position}: {self.message}"


@dataclass
class CheckReport:
    issues: List[TypeIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def error(self) -> MjTypeError:
        """The error a strict load raises over these issues."""
        return MjTypeError("\n".join(str(i) for i in self.issues))

    def raise_if_failed(self) -> None:
        if self.issues:
            raise self.error()


class TypeChecker:
    def __init__(self, registry: TypeRegistry):
        self.registry = registry
        self.report = CheckReport()

    def check_units(self, units: Sequence[CompilationUnit]) -> CheckReport:
        for unit in units:
            for cls in unit.classes:
                self._check_class(unit.source, cls)
        return self.report

    def _issue(self, source: str, position: Position, message: str) -> None:
        self.report.issues.append(TypeIssue(message, source, position))

    def _check_class(self, source: str, cls: ClassDecl) -> None:
        for m in cls.methods:
            self._check_method(source, m)

    def _check_method(self, source: str, m: MethodDecl) -> None:
        if m.body is None:
            return
        if m.is_constructor:
            return_type: Optional[JavaType] = None
        else:
            return_type = (
                m.resolved_method.return_type if m.resolved_method is not None else None
            )
        for stmt in walk_statements(m.body):
            self._check_stmt(source, stmt, return_type)
        for expr in method_expressions(m):
            if isinstance(expr, CastExpr):
                self._check_cast(source, expr)

    def _check_stmt(self, source: str, stmt: Stmt, return_type: Optional[JavaType]) -> None:
        if isinstance(stmt, LocalVarDecl):
            if stmt.init is not None and stmt.resolved_type is not None:
                self._check_assignable(source, stmt.position, stmt.init, stmt.resolved_type)
        elif isinstance(stmt, AssignStmt):
            target_type = stmt.target.resolved_type
            if target_type is not None:
                self._check_assignable(source, stmt.position, stmt.value, target_type)
        elif isinstance(stmt, ReturnStmt):
            if return_type in (None, VOID):
                if stmt.value is not None and return_type == VOID:
                    self._issue(source, stmt.position, "void method returns a value")
            elif stmt.value is None:
                self._issue(source, stmt.position, "missing return value")
            else:
                self._check_assignable(source, stmt.position, stmt.value, return_type)
        elif isinstance(stmt, (IfStmt, WhileStmt)):
            cond = stmt.condition
            if cond.resolved_type is not None and cond.resolved_type != PRIMITIVES["boolean"]:
                self._issue(
                    source, stmt.position, f"condition has type {cond.resolved_type}, not boolean"
                )

    def _check_assignable(
        self, source: str, position: Position, value: Expr, target: JavaType
    ) -> None:
        vt = value.resolved_type
        if vt is None:  # null literal
            if not is_reference(target):
                self._issue(source, position, f"cannot assign null to {target}")
            return
        if is_assignable(self.registry, vt, target):
            return
        # Tolerate numeric widening between primitives (int literal to long).
        if vt in PRIMITIVES.values() and target in PRIMITIVES.values():
            return
        self._issue(source, position, f"cannot assign {vt} to {target}")

    def _check_cast(self, source: str, cast: CastExpr) -> None:
        target = cast.resolved_type
        operand = cast.operand_type
        if target is None or operand is None:
            return
        if not is_reference(target) or not is_reference(operand):
            # Primitive-to-primitive conversions (numeric casts) are
            # legal Java; crossing the primitive/reference boundary in
            # either direction is not (mini-Java has no boxing).
            if is_reference(target) != is_reference(operand):
                self._issue(
                    source,
                    cast.position,
                    f"cannot cast between primitive and reference types"
                    f" {operand} and {target}",
                )
            return
        if operand == target:
            return
        if self.registry.is_subtype(operand, target) or self.registry.is_subtype(
            target, operand
        ):
            return
        # Java allows casts through interfaces (the runtime class may
        # implement the interface even if the static types are unrelated).
        for t in (target, operand):
            if isinstance(t, NamedType):
                try:
                    if self.registry.declaration_of(t).kind is TypeKind.INTERFACE:
                        return
                except Exception:  # pragma: no cover - unresolved corner
                    pass
        self._issue(
            source, cast.position, f"cast between unrelated types {operand} and {target}"
        )


def check_program(
    registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    cache: Optional[ResolutionCache] = None,
) -> CheckReport:
    """Check all units, returning the report (never raising).

    Call right after ``units`` resolved into ``registry`` with ``cache``:
    a unit whose entry already holds its issues is not checked again.
    """
    checker = TypeChecker(registry)
    issues = checker.report.issues
    for unit in units:
        cached = cache.issues_of(unit) if cache is not None else None
        if cached is not None:
            issues.extend(cached)
            continue
        start = len(issues)
        checker.check_units([unit])
        if cache is not None:
            cache.record_issues(unit, tuple(issues[start:]))
    return checker.report
