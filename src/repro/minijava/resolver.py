"""Name resolution and type annotation for mini-Java corpus programs.

Resolution happens against a :class:`TypeRegistry` that holds the API
declarations; corpus classes are *added* to that registry (the caller
normally passes a clone, so client members never leak into the synthesis
graph — see :mod:`repro.corpus.loader`). After resolution every
expression node carries ``resolved_type`` and every call / field access /
``new`` carries the resolved member, which is what the miner consumes.

Body resolution of a unit depends only on the names it looks up and the
declarations of the corpus types it reads. A :class:`ResolutionCache`
records both per unit, so a later attempt over the same parsed AST skips
the unit's bodies when every lookup still gives the same answer: its
annotations are then already what resolving it again would write. The
cache records a unit's declarations the same way: its classes' resolved
supertypes and members depend only on the AST and the names it probed
while declaring them.

A failed attempt names the unit it failed in: the raised error carries a
:class:`ResolutionFailure` (see :func:`failure_of`) with the step and
what that unit had looked up by then, which the lenient loader uses to
pick and remember its culprit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..typesystem import (
    ArrayType,
    Constructor,
    Field as TsField,
    JavaType,
    Method,
    NamedType,
    Parameter,
    PRIMITIVES,
    TypeDeclaration,
    TypeKind,
    TypeRegistry,
    TypeSystemError,
    UnknownTypeError,
    VOID,
    Visibility,
    array_of,
    is_assignable,
    named,
)
from .ast import (
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
    VarRef,
    WhileStmt,
)
from .errors import MiniJavaError, MjResolveError
from .symbols import Scope

_VISIBILITY = {
    "public": Visibility.PUBLIC,
    "protected": Visibility.PROTECTED,
    "private": Visibility.PRIVATE,
}

STRING_NAME = "java.lang.String"


class _Trace:
    """What one unit's body resolution looked up."""

    __slots__ = ("names", "simples", "reads")

    def __init__(self) -> None:
        #: Qualified name probed -> the type declared under it, or None.
        self.names: Dict[str, Optional[NamedType]] = {}
        #: Simple name probed -> every type declared with it.
        self.simples: Dict[str, Tuple[NamedType, ...]] = {}
        #: Types that bound a name, received a member lookup, took part
        #: in a subtype test, or will be related by the checker.
        self.reads: Set[NamedType] = set()

    def read(self, t: Optional[JavaType]) -> None:
        while isinstance(t, ArrayType):
            t = t.element
        if isinstance(t, NamedType):
            self.reads.add(t)


class _Entry:
    """A unit's trace, with the declaration digests of the corpus types it read."""

    __slots__ = ("unit", "trace", "digests", "issues")

    def __init__(self, unit: CompilationUnit, trace: _Trace, digests: Dict[NamedType, tuple]):
        self.unit = unit
        self.trace = trace
        self.digests = digests
        #: The checker's issues for these annotations, once checked.
        self.issues: Optional[tuple] = None


#: One class's resolved declaration: superclass, interfaces, fields,
#: methods, constructors.
_Shape = Tuple[Optional[NamedType], Tuple[NamedType, ...], tuple, tuple, tuple]


class _Declared(NamedTuple):
    """A unit's declaration record: its declaration trace, and the shape
    its members step gave each of its classes, in order."""

    unit: CompilationUnit
    trace: _Trace
    shapes: Tuple[_Shape, ...]


class ResolutionFailure(NamedTuple):
    """Where a resolution attempt failed.

    ``step`` is the declaration step the error was raised in
    (:data:`STEP_NAMES`, :data:`STEP_SUPERTYPES`, :data:`STEP_MEMBERS`)
    or :data:`STEP_BODIES`; ``traces`` hold every name ``unit`` had
    probed in that attempt when it failed (its declaration trace, then
    its partial body trace).
    """

    unit: CompilationUnit
    step: int
    traces: Tuple[_Trace, ...]


#: The steps of one attempt, in the order every unit passes through them.
STEP_NAMES, STEP_SUPERTYPES, STEP_MEMBERS, STEP_BODIES = range(4)

#: Errors a resolution attempt raises for a bad corpus, as opposed to bugs.
_MODEL_ERRORS = (MiniJavaError, TypeSystemError)


def failure_of(error: BaseException) -> Optional[ResolutionFailure]:
    """The failure a resolution attempt attached to ``error``, if any."""
    return getattr(error, "resolution_failure", None)


def _blame(error: BaseException, unit: CompilationUnit, step: int, *traces: _Trace) -> None:
    error.resolution_failure = ResolutionFailure(unit, step, traces)  # type: ignore[attr-defined]


class ResolutionCache:
    """Per-unit records of resolution, keyed by parsed AST.

    A unit has up to two records. Its *declaration record* holds the
    names its supertypes and members steps probed and the shape they
    gave its classes; its *body entry* holds what its bodies looked up
    and the declaration digests of the corpus types they read. Either
    one always describes the annotations currently on its AST: the
    resolver drops it before the step that writes them starts and
    writes it only once that step succeeds, so a failed attempt never
    leaves a record over annotations made against a discarded registry.
    A body entry's reads include every type the checker relates, so the
    check issues it caches hold for as long as it stays valid. API
    declarations are taken as fixed: use one cache only with clones of
    one API registry.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, _Entry] = {}
        #: Declaration records (see :meth:`Resolver.declare_units`).
        self.declared: Dict[int, _Declared] = {}
        #: Units whose bodies were resolved, not reused, since :meth:`retain`.
        self.resolved: Set[int] = set()
        #: Every trace of the last attempt: each unit's declaration trace,
        #: then each body trace, fresh or reused (complete after success).
        self.lookups: List[_Trace] = []
        #: The lenient loader's quarantine memo, one record per parsed
        #: AST it quarantined (see :mod:`repro.corpus.loader`).
        self.quarantined: Dict[int, object] = {}

    def retain(self, units: Iterable[CompilationUnit]) -> None:
        """Keep only the entries of ``units``; restart the resolved log."""
        live = {id(u) for u in units}
        self._entries = {k: e for k, e in self._entries.items() if k in live}
        self.declared = {k: d for k, d in self.declared.items() if k in live}
        self.quarantined = {k: q for k, q in self.quarantined.items() if k in live}
        self.resolved.clear()

    def take(self, unit: CompilationUnit) -> Optional[_Entry]:
        """Remove and return ``unit``'s entry, if it has one."""
        return self._entries.pop(id(unit), None)

    def put(self, entry: _Entry) -> None:
        self._entries[id(entry.unit)] = entry

    def issues_of(self, unit: CompilationUnit) -> Optional[tuple]:
        """The check issues cached for ``unit``, or ``None``."""
        entry = self._entries.get(id(unit))
        return entry.issues if entry is not None else None

    def record_issues(self, unit: CompilationUnit, issues: tuple) -> None:
        """Cache ``unit``'s check issues on its entry, if it has one."""
        entry = self._entries.get(id(unit))
        if entry is not None:
            entry.issues = issues


class UnitEnvironment:
    """Per-compilation-unit name environment: package + imports."""

    def __init__(self, registry: TypeRegistry, unit: CompilationUnit):
        self._registry = registry
        self._package = unit.package
        self._imports: Dict[str, str] = {}
        for imp in unit.imports:
            simple = imp.rpartition(".")[2]
            self._imports[simple] = imp
        #: Where name lookups are recorded; the resolver swaps in a fresh
        #: trace before it resolves the unit's bodies, and the first one
        #: stays as ``declaration_trace``.
        self.trace = self.declaration_trace = _Trace()

    def probe(self, dotted_name: str) -> Optional[NamedType]:
        """The type declared under a qualified name, or ``None``; recorded."""
        t = self._registry.get(dotted_name)
        self.trace.names[dotted_name] = t
        return t

    def _lookup(self, dotted_name: str) -> NamedType:
        t = self.probe(dotted_name)
        # On a miss the registry raises what a plain lookup raises.
        return t if t is not None else self._registry.lookup(dotted_name)

    def resolve_type_name(self, name: str) -> NamedType:
        """Resolve a possibly-qualified source type name."""
        t = self._resolve_type_name(name)
        self.trace.reads.add(t)
        return t

    def _resolve_type_name(self, name: str) -> NamedType:
        if "." in name:
            return self._lookup(name)
        if name in self._imports:
            return self._lookup(self._imports[name])
        if self._package:
            candidate = self.probe(f"{self._package}.{name}")
            if candidate is not None:
                return candidate
        lang = self.probe(f"java.lang.{name}")
        if lang is not None:
            return lang
        matches = tuple(self._registry.lookup_simple(name))
        self.trace.simples[name] = matches
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise MjResolveError(f"unknown type {name!r}")
        raise MjResolveError(
            f"ambiguous type {name!r}: {', '.join(sorted(str(m) for m in matches))}"
        )

    def try_resolve_type_name(self, name: str) -> Optional[NamedType]:
        try:
            return self.resolve_type_name(name)
        except (MjResolveError, UnknownTypeError):
            return None

    def resolve_type_ref(self, ref: TypeRef) -> JavaType:
        if ref.name == "void":
            if ref.dims:
                raise MjResolveError("void cannot be an array element")
            return VOID
        if ref.name in PRIMITIVES:
            base: JavaType = PRIMITIVES[ref.name]
        else:
            base = self.resolve_type_name(ref.name)
        if ref.dims:
            return array_of(base, ref.dims)  # type: ignore[arg-type]
        return base


class Resolver:
    """Two-phase resolver: declare corpus classes, then resolve bodies.

    With a :class:`ResolutionCache`, phase 1 reuses the declaration
    record and phase 2 skips the bodies of every unit whose record or
    entry is still valid in this registry.
    """

    def __init__(self, registry: TypeRegistry, cache: Optional[ResolutionCache] = None):
        self.registry = registry
        self.cache = cache
        self._envs: Dict[int, UnitEnvironment] = {}
        self._corpus_types: List[NamedType] = []
        self._corpus: Set[NamedType] = set()
        self._trace = _Trace()
        self._digests: Dict[NamedType, Optional[tuple]] = {}

    # ------------------------------------------------------------------
    # Phase 1: declarations
    # ------------------------------------------------------------------

    def declare_units(self, units: Sequence[CompilationUnit]) -> List[NamedType]:
        """Declare every corpus class/interface into the registry.

        Once every corpus name is declared, a unit whose declaration
        record's probes all bind as they did takes its classes' shapes
        from the record, and its annotations stay as they are. Any other
        unit drops its record, resolves its supertypes and members
        afresh, and is recorded again once its members step succeeds.
        """
        cache = self.cache
        if cache is not None:
            cache.lookups = []
        for unit in units:
            try:
                for cls in unit.classes:
                    assert cls.qualified_name is not None
                    self.registry.declare(
                        cls.qualified_name,
                        kind=TypeKind.INTERFACE if cls.is_interface else TypeKind.CLASS,
                    )
            except _MODEL_ERRORS as exc:
                _blame(exc, unit, STEP_NAMES)
                raise
        reused: Dict[int, _Declared] = {}
        if cache is not None:
            for unit in units:
                record = cache.declared.pop(id(unit), None)
                if record is not None and self._binds_same(record.trace):
                    reused[id(unit)] = cache.declared[id(unit)] = record
        # Supertypes and members need every corpus type declared first, but
        # the registry fixes supertypes at declare time — so corpus classes
        # record them via a patch pass on the declaration objects.
        for unit in units:
            record = reused.get(id(unit))
            if record is not None:
                for cls, shape in zip(unit.classes, record.shapes):
                    decl = self._declaration(cls)
                    decl.superclass, decl.interfaces = shape[0], shape[1]
                continue
            env = self._env(unit)
            try:
                for cls in unit.classes:
                    decl = self._declaration(cls)
                    if cls.extends is not None:
                        decl.superclass = env.resolve_type_name(cls.extends.name)
                    decl.interfaces = tuple(
                        env.resolve_type_name(i.name) for i in cls.implements
                    )
            except _MODEL_ERRORS as exc:
                _blame(exc, unit, STEP_SUPERTYPES, env.trace)
                raise
        self.registry.invalidate_caches()  # hierarchy changed
        for unit in units:
            env = self._env(unit)
            record = reused.get(id(unit))
            if record is not None:
                for cls, shape in zip(unit.classes, record.shapes):
                    decl = self._declaration(cls)
                    self._corpus_types.append(decl.type)
                    decl.fields, decl.methods, decl.constructors = map(list, shape[2:])
                env.declaration_trace = record.trace
            else:
                try:
                    for cls in unit.classes:
                        self._declare_members(env, cls)
                except _MODEL_ERRORS as exc:
                    _blame(exc, unit, STEP_MEMBERS, env.trace)
                    raise
                if cache is not None:
                    cache.declared[id(unit)] = _Declared(
                        unit, env.trace, tuple(self._shape(cls) for cls in unit.classes)
                    )
            if cache is not None:
                cache.lookups.append(env.declaration_trace)
        self.registry.invalidate_caches()  # recorded members were set in place
        self._corpus = set(self._corpus_types)
        return list(self._corpus_types)

    def _declaration(self, cls: ClassDecl) -> TypeDeclaration:
        return self.registry.declaration_of(
            self.registry.lookup(cls.qualified_name)  # type: ignore[arg-type]
        )

    def _shape(self, cls: ClassDecl) -> _Shape:
        decl = self._declaration(cls)
        return (
            decl.superclass,
            decl.interfaces,
            tuple(decl.fields),
            tuple(decl.methods),
            tuple(decl.constructors),
        )

    def _env(self, unit: CompilationUnit) -> UnitEnvironment:
        key = id(unit)
        env = self._envs.get(key)
        if env is None:
            env = UnitEnvironment(self.registry, unit)
            self._envs[key] = env
        return env

    def _declare_members(self, env: UnitEnvironment, cls: ClassDecl) -> None:
        owner = self.registry.lookup(cls.qualified_name)  # type: ignore[arg-type]
        self._corpus_types.append(owner)
        has_constructor = False
        for f in cls.fields:
            ftype = env.resolve_type_ref(f.type_ref)
            f.resolved_type = ftype
            self.registry.add_field(
                TsField(
                    owner=owner,
                    name=f.name,
                    type=ftype,
                    static=f.static,
                    visibility=_VISIBILITY[f.visibility],
                )
            )
        for m in cls.methods:
            m.owner_type = owner
            params = []
            for p in m.params:
                p.resolved_type = env.resolve_type_ref(p.type_ref)
                params.append(Parameter(p.name, p.resolved_type))
            if m.is_constructor:
                has_constructor = True
                ctor = Constructor(
                    owner=owner,
                    parameters=tuple(params),
                    visibility=_VISIBILITY[m.visibility],
                )
                self.registry.add_constructor(ctor)
                m.resolved_constructor = ctor
                continue
            rtype = env.resolve_type_ref(m.return_type)
            method = Method(
                owner=owner,
                name=m.name,
                return_type=rtype,
                parameters=tuple(params),
                static=m.static,
                visibility=_VISIBILITY[m.visibility],
            )
            self.registry.add_method(method)
            m.resolved_method = method
        if not cls.is_interface and not has_constructor:
            # Java's implicit default constructor.
            self.registry.add_constructor(Constructor(owner=owner))

    # ------------------------------------------------------------------
    # Phase 2: bodies
    # ------------------------------------------------------------------

    def resolve_units(self, units: Sequence[CompilationUnit]) -> None:
        for unit in units:
            entry = self.cache.take(unit) if self.cache is not None else None
            if entry is not None and self._still_valid(entry):
                self.cache.put(entry)
                self.cache.lookups.append(entry.trace)
                continue
            try:
                trace = self._resolve_bodies(unit)
            except _MODEL_ERRORS as exc:
                env = self._env(unit)
                _blame(exc, unit, STEP_BODIES, env.declaration_trace, env.trace)
                raise
            if self.cache is None:
                continue
            self.cache.resolved.add(id(unit))
            self.cache.lookups.append(trace)
            digests = {t: self._digest(t) for t in trace.reads if t in self._corpus}
            if None not in digests.values():
                self.cache.put(_Entry(unit, trace, digests))

    def _resolve_bodies(self, unit: CompilationUnit) -> _Trace:
        env = self._env(unit)
        trace = self._trace = env.trace = _Trace()
        for cls in unit.classes:
            owner = self.registry.lookup(cls.qualified_name)  # type: ignore[arg-type]
            trace.reads.add(owner)
            for f in cls.fields:
                if f.init is not None:
                    scope = Scope()
                    self._expr(f.init, env, owner, scope)
            for m in cls.methods:
                self._resolve_method(env, owner, m)
        return trace

    def _still_valid(self, entry: _Entry) -> bool:
        """Would resolving the entry's unit look up the same answers now?"""
        if not self._binds_same(entry.trace):
            return False
        return all(self._digest(t) == want for t, want in entry.digests.items())

    def _binds_same(self, trace: _Trace) -> bool:
        """Does every name ``trace`` probed bind as it did then?"""
        registry = self.registry
        for name, want in trace.names.items():
            if registry.get(name) != want:
                return False
        for name, want in trace.simples.items():
            if tuple(registry.lookup_simple(name)) != want:
                return False
        return True

    def _digest(self, t: NamedType) -> Optional[tuple]:
        """``t``'s resolved declaration, closed over its corpus supertypes.

        ``None`` when ``t`` is not declared or its hierarchy is broken.
        """
        if t not in self._digests:
            try:
                self._digests[t] = tuple(
                    (
                        d.type,
                        d.kind,
                        d.superclass,
                        d.interfaces,
                        tuple(d.fields),
                        tuple(d.methods),
                        tuple(d.constructors),
                        d.abstract,
                    )
                    for d in map(
                        self.registry.declaration_of,
                        (t,) + self.registry.all_supertypes(t),
                    )
                    if d.type in self._corpus
                )
            except TypeSystemError:
                self._digests[t] = None
        return self._digests[t]

    def _resolve_method(self, env: UnitEnvironment, owner: NamedType, m: MethodDecl) -> None:
        if m.body is None:
            return
        scope = Scope()
        for p in m.params:
            assert p.resolved_type is not None
            scope.declare(p.name, p.resolved_type, kind="param")
        self._stmt(m.body, env, owner, scope)

    # -- statements -----------------------------------------------------

    def _stmt(self, stmt: Stmt, env: UnitEnvironment, owner: NamedType, scope: Scope) -> None:
        if isinstance(stmt, Block):
            inner = scope.child()
            for s in stmt.statements:
                self._stmt(s, env, owner, inner)
        elif isinstance(stmt, LocalVarDecl):
            stmt.resolved_type = env.resolve_type_ref(stmt.type_ref)
            if stmt.init is not None:
                # The checker relates the types this statement reads.
                self._trace.read(self._expr(stmt.init, env, owner, scope))
            scope.declare(stmt.name, stmt.resolved_type, kind="local")
        elif isinstance(stmt, AssignStmt):
            self._trace.read(self._expr(stmt.target, env, owner, scope))
            self._trace.read(self._expr(stmt.value, env, owner, scope))
        elif isinstance(stmt, ExprStmt):
            self._expr(stmt.expr, env, owner, scope)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self._trace.read(self._expr(stmt.value, env, owner, scope))
        elif isinstance(stmt, IfStmt):
            self._expr(stmt.condition, env, owner, scope)
            self._stmt(stmt.then_branch, env, owner, scope)
            if stmt.else_branch is not None:
                self._stmt(stmt.else_branch, env, owner, scope)
        elif isinstance(stmt, WhileStmt):
            self._expr(stmt.condition, env, owner, scope)
            self._stmt(stmt.body, env, owner, scope)
        else:  # pragma: no cover - exhaustive over our AST
            raise MjResolveError(f"unhandled statement {type(stmt).__name__}")

    # -- expressions -----------------------------------------------------

    def _expr(self, expr: Expr, env: UnitEnvironment, owner: NamedType, scope: Scope) -> JavaType:
        t = self._expr_inner(expr, env, owner, scope)
        expr.resolved_type = t
        return t

    def _expr_inner(
        self, expr: Expr, env: UnitEnvironment, owner: NamedType, scope: Scope
    ) -> Optional[JavaType]:
        if isinstance(expr, IntLit):
            return PRIMITIVES["int"]
        if isinstance(expr, BoolLit):
            return PRIMITIVES["boolean"]
        if isinstance(expr, CharLit):
            return PRIMITIVES["char"]
        if isinstance(expr, StringLit):
            return self._string_type(env)
        if isinstance(expr, NullLit):
            return None  # the null type: assignable to any reference type
        if isinstance(expr, ThisExpr):
            return owner
        if isinstance(expr, VarRef):
            return self._var_ref(expr, env, owner, scope)
        if isinstance(expr, TypeName):
            return env.resolve_type_name(expr.name)
        if isinstance(expr, FieldAccessExpr):
            return self._field_access(expr, env, owner, scope)
        if isinstance(expr, CallExpr):
            return self._call(expr, env, owner, scope)
        if isinstance(expr, NewExpr):
            return self._new(expr, env, owner, scope)
        if isinstance(expr, CastExpr):
            target = env.resolve_type_ref(expr.type_ref)
            operand_t = self._expr(expr.operand, env, owner, scope)
            expr.operand_type = operand_t
            self._trace.read(operand_t)
            return target
        if isinstance(expr, BinaryExpr):
            lt = self._expr(expr.left, env, owner, scope)
            self._expr(expr.right, env, owner, scope)
            if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                return PRIMITIVES["boolean"]
            if expr.op == "+" and lt == self._string_type(env):
                return lt
            return lt
        if isinstance(expr, UnaryExpr):
            t = self._expr(expr.operand, env, owner, scope)
            if expr.op == "!":
                return PRIMITIVES["boolean"]
            return t
        raise MjResolveError(f"unhandled expression {type(expr).__name__}")

    def _string_type(self, env: UnitEnvironment) -> NamedType:
        string = env.probe(STRING_NAME)
        if string is None:
            raise MjResolveError(
                "java.lang.String is not declared; load the java.lang stubs first"
            )
        return string

    def _var_ref(
        self, expr: VarRef, env: UnitEnvironment, owner: NamedType, scope: Scope
    ) -> JavaType:
        symbol = scope.lookup(expr.name)
        if symbol is not None:
            expr.resolved_kind = symbol.kind
            return symbol.type
        field = self.registry.find_field(owner, expr.name)
        if field is not None:
            expr.resolved_kind = "field"
            expr.resolved_field = field
            return field.type
        raise MjResolveError(f"unknown variable {expr.name!r} (in {owner})")

    def _receiver(
        self, expr: Expr, env: UnitEnvironment, owner: NamedType, scope: Scope
    ) -> Tuple[Expr, JavaType, bool]:
        """Resolve a receiver expression, folding type names.

        Returns ``(possibly rewritten expr, type, is_static_receiver)``. A
        bare name (or dotted chain of names) that doesn't resolve as a
        variable is reinterpreted as a type reference — the ``JavaCore``
        in ``JavaCore.createCompilationUnitFrom(file)``.
        """
        if isinstance(expr, TypeName) and expr.folded_from is not None:
            expr = expr.folded_from
        dotted = _as_dotted_name(expr)
        if dotted is not None:
            head = dotted.split(".")[0]
            # Variables shadow type names, as in Java.
            if scope.lookup(head) is None and self.registry.find_field(owner, head) is None:
                t = env.try_resolve_type_name(dotted)
                if t is not None:
                    folded = TypeName(name=dotted, position=expr.position, folded_from=expr)
                    folded.resolved_type = t
                    return folded, t, True
        t = self._expr(expr, env, owner, scope)
        if t is None:
            raise MjResolveError("cannot call a member on the null literal")
        return expr, t, False

    def _field_access(
        self, expr: FieldAccessExpr, env: UnitEnvironment, owner: NamedType, scope: Scope
    ) -> JavaType:
        receiver, rtype, is_static = self._receiver(expr.receiver, env, owner, scope)
        expr.receiver = receiver
        if isinstance(rtype, ArrayType) and expr.name == "length":
            return PRIMITIVES["int"]
        if not isinstance(rtype, NamedType):
            raise MjResolveError(f"cannot access field {expr.name!r} on {rtype}")
        self._trace.reads.add(rtype)
        field = self.registry.find_field(rtype, expr.name)
        if field is None:
            raise MjResolveError(f"unknown field {rtype}.{expr.name}")
        if is_static and not field.static:
            raise MjResolveError(f"field {rtype}.{expr.name} is not static")
        expr.resolved_field = field
        return field.type

    def _call(
        self, expr: CallExpr, env: UnitEnvironment, owner: NamedType, scope: Scope
    ) -> JavaType:
        arg_types = []
        if expr.receiver is None:
            recv_type: NamedType = owner
            is_static = False
        else:
            receiver, rtype, is_static = self._receiver(expr.receiver, env, owner, scope)
            expr.receiver = receiver
            if not isinstance(rtype, NamedType):
                raise MjResolveError(f"cannot call {expr.name!r} on {rtype}")
            recv_type = rtype
            self._trace.reads.add(recv_type)
        for arg in expr.args:
            arg_types.append(self._expr(arg, env, owner, scope))
        method = self._pick_method(recv_type, expr.name, arg_types, static_only=is_static)
        expr.resolved_method = method
        return method.return_type

    def _pick_method(
        self,
        recv_type: NamedType,
        name: str,
        arg_types: List[Optional[JavaType]],
        static_only: bool,
    ) -> Method:
        candidates = [
            m
            for m in self.registry.find_method(recv_type, name, arity=len(arg_types))
            if self._args_match(m.parameter_types, arg_types)
            and (not static_only or m.static)
        ]
        if not candidates:
            raise MjResolveError(
                f"no applicable method {recv_type}.{name}/{len(arg_types)}"
                f" for argument types ({', '.join(str(t) for t in arg_types)})"
            )
        if len(candidates) > 1:
            exact = [m for m in candidates if list(m.parameter_types) == arg_types]
            if exact:
                return exact[0]
        return candidates[0]

    def _args_match(
        self, params: Tuple[JavaType, ...], args: List[Optional[JavaType]]
    ) -> bool:
        for p, a in zip(params, args):
            self._trace.read(p)
            self._trace.read(a)
            if a is None:  # null literal matches any reference type
                from ..typesystem import is_reference

                if not is_reference(p):
                    return False
                continue
            if not is_assignable(self.registry, a, p):
                # Tolerate numeric-literal widening (int literal to long etc.)
                if isinstance(a, type(PRIMITIVES["int"])) and isinstance(
                    p, type(PRIMITIVES["int"])
                ):
                    continue
                return False
        return True

    def _new(
        self, expr: NewExpr, env: UnitEnvironment, owner: NamedType, scope: Scope
    ) -> JavaType:
        t = env.resolve_type_ref(expr.type_ref)
        if not isinstance(t, NamedType):
            raise MjResolveError(f"cannot instantiate {t}")
        self._trace.reads.add(t)
        arg_types = [self._expr(a, env, owner, scope) for a in expr.args]
        candidates = [
            c
            for c in self.registry.constructors_of(t)
            if c.arity == len(arg_types) and self._args_match(c.parameter_types, arg_types)
        ]
        if not candidates:
            raise MjResolveError(
                f"no applicable constructor {t}({', '.join(str(a) for a in arg_types)})"
            )
        expr.resolved_constructor = candidates[0]
        return t


def _as_dotted_name(expr: Expr) -> Optional[str]:
    """Render a chain of VarRef/FieldAccess nodes as a dotted name."""
    parts: List[str] = []
    node = expr
    while isinstance(node, FieldAccessExpr):
        parts.append(node.name)
        node = node.receiver
    if isinstance(node, VarRef):
        parts.append(node.name)
        return ".".join(reversed(parts))
    return None


def resolve_program(
    registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    cache: Optional[ResolutionCache] = None,
) -> List[NamedType]:
    """Declare and resolve a whole corpus; returns the corpus types.

    Every unit is declared; with ``cache``, only units whose cached
    lookups changed have their bodies resolved again.
    """
    resolver = Resolver(registry, cache)
    corpus_types = resolver.declare_units(units)
    resolver.resolve_units(units)
    return corpus_types
