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

An attempt checks only the records an edit can have invalidated. The
cache keeps the corpus bindings and declarations the last successful
attempt saw, and reverse indexes from every recorded name, simple name
and read type to the units whose records recorded it. The next attempt
compares its own bindings and declarations with those, and runs the
validity checks only on the records of the units the indexes list for a
changed name or type; any other record that attempt checked or wrote
would pass them, so it is reused as it is.

A failed attempt names the unit it failed in: the raised error carries a
:class:`ResolutionFailure` (see :func:`failure_of`) with the step and
what that unit had looked up by then, which the lenient loader uses to
pick and remember its culprit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    """A unit's body trace, with the declaration digests of the corpus
    types it read; ``digests`` is ``None`` when a read type had none, and
    the entry then only records the trace."""

    __slots__ = ("unit", "trace", "digests", "issues", "attempt")

    def __init__(
        self,
        unit: CompilationUnit,
        trace: _Trace,
        digests: Optional[Dict[NamedType, tuple]],
        attempt: int,
    ):
        self.unit = unit
        self.trace = trace
        self.digests = digests
        #: The checker's issues for these annotations, once checked.
        self.issues: Optional[tuple] = None
        #: The last attempt that checked or wrote this entry.
        self.attempt = attempt


#: One class's resolved declaration: superclass, interfaces, fields,
#: methods, constructors.
_Shape = Tuple[Optional[NamedType], Tuple[NamedType, ...], tuple, tuple, tuple]


class _Declared:
    """A unit's declaration record: its declaration trace, and the shape
    its members step gave each of its classes, in order."""

    __slots__ = ("unit", "trace", "shapes", "attempt")

    def __init__(
        self, unit: CompilationUnit, trace: _Trace, shapes: Tuple[_Shape, ...], attempt: int
    ):
        self.unit = unit
        self.trace = trace
        self.shapes = shapes
        #: The last attempt that checked or wrote this record.
        self.attempt = attempt


class Dependents:
    """A reverse index over records: for each of its tables, each key a
    record recorded -> its owners (unit ids, sources, or units'
    (source, fingerprint)), once per occurrence. Most keys have one owner
    or a few, so owners are held in tuples."""

    __slots__ = ("tables",)

    def __init__(self, tables: int) -> None:
        self.tables: Tuple[Dict[Hashable, Tuple[Hashable, ...]], ...] = tuple(
            {} for _ in range(tables)
        )

    def add(self, owner: Hashable, *keys: Iterable[Hashable]) -> None:
        """Index ``owner`` under each table's ``keys``, in table order."""
        for table, recorded in zip(self.tables, keys):
            for key in recorded:
                table[key] = table.get(key, ()) + (owner,)

    def remove(self, owner: Hashable, *keys: Iterable[Hashable]) -> None:
        """Undo :meth:`add` with the same keys: drop every occurrence."""
        for table, recorded in zip(self.tables, keys):
            for key in recorded:
                owners = tuple(o for o in table.get(key, ()) if o != owner)
                if owners:
                    table[key] = owners
                else:
                    table.pop(key, None)

    def of(self, *keys: Iterable[Hashable]) -> Set[Hashable]:
        """The owners that recorded any of each table's ``keys``."""
        found: Set[Hashable] = set()
        for table, wanted in zip(self.tables, keys):
            for key in wanted:
                found.update(table.get(key, ()))
        return found


class _Seen(NamedTuple):
    """What one successful attempt saw of the corpus: each corpus
    qualified name's type, each corpus simple name's types in corpus
    order, and each corpus type's own declaration (:func:`_own`)."""

    names: Dict[str, NamedType]
    simples: Dict[str, Tuple[NamedType, ...]]
    own: Dict[NamedType, tuple]


def _own(decl: TypeDeclaration) -> tuple:
    """One declaration as a digest records it."""
    return (
        decl.type,
        decl.kind,
        decl.superclass,
        decl.interfaces,
        tuple(decl.fields),
        tuple(decl.methods),
        tuple(decl.constructors),
        decl.abstract,
    )


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

    Each record carries the last attempt that checked or wrote it. The
    cache keeps what the last successful attempt saw (:class:`_Seen`)
    and indexes every record by the names, simple names and types it
    recorded, so the next attempt finds the records a changed binding
    or declaration can invalidate (see :meth:`Resolver.declare_units`).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, _Entry] = {}
        #: Declaration records (see :meth:`Resolver.declare_units`).
        self.declared: Dict[int, _Declared] = {}
        #: Units whose bodies were resolved, not reused, since :meth:`retain`.
        self.resolved: Set[int] = set()
        #: Units a record of which was checked, not reused unchecked,
        #: since :meth:`retain`.
        self.checked: Set[int] = set()
        #: The lenient loader's quarantine memo, one record per parsed
        #: AST it quarantined (see :mod:`repro.corpus.loader`).
        self.quarantined: Dict[int, object] = {}
        #: The number of attempts begun, and the last successful one.
        self.attempts = 0
        self.last: Optional[int] = None
        #: What the last successful attempt saw.
        self.seen = _Seen({}, {}, {})
        #: Probed names and simple names -> units, per declaration record;
        #: and per body entry, with its read corpus types.
        self._declared_by = Dependents(2)
        self._read_by = Dependents(3)

    def retain(self, units: Iterable[CompilationUnit]) -> None:
        """Keep only the records of ``units``; restart the logs."""
        live = {id(u) for u in units}
        for key in [k for k in self.declared if k not in live]:
            self.drop_declared(key)
        for key in [k for k in self._entries if k not in live]:
            self.drop(key)
        self.quarantined = {k: q for k, q in self.quarantined.items() if k in live}
        self.resolved.clear()
        self.checked.clear()

    def put_declared(self, record: _Declared) -> None:
        self.drop_declared(id(record.unit))
        self.declared[id(record.unit)] = record
        self._declared_by.add(id(record.unit), record.trace.names, record.trace.simples)

    def drop_declared(self, key: int) -> None:
        record = self.declared.pop(key, None)
        if record is not None:
            self._declared_by.remove(key, record.trace.names, record.trace.simples)

    def entry(self, unit: CompilationUnit) -> Optional[_Entry]:
        return self._entries.get(id(unit))

    def put(self, entry: _Entry) -> None:
        self.drop(id(entry.unit))
        self._entries[id(entry.unit)] = entry
        trace = entry.trace
        self._read_by.add(id(entry.unit), trace.names, trace.simples, entry.digests or ())

    def drop(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            trace = entry.trace
            self._read_by.remove(key, trace.names, trace.simples, entry.digests or ())

    def probed_by(self, names: Iterable[str], simples: Iterable[str]) -> Set[int]:
        """The units whose records probed any of ``names`` or ``simples``."""
        names, simples = list(names), list(simples)
        return self._declared_by.of(names, simples) | self._read_by.of(names, simples)

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
        #: With a cache: this attempt's number, what it sees, and the
        #: names, simple names and types whose binding or declaration
        #: differs from what the cache's last successful attempt saw.
        self._attempt = 0
        #: Units whose declaration record this attempt reused, by id.
        self._reused: Dict[int, _Declared] = {}
        self._seen = _Seen({}, {}, {})
        self._changed: Tuple[Set[str], Set[str], Set[NamedType]] = (set(), set(), set())

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

        Only the records of units that probed a name whose binding
        changed since the cache's last successful attempt, or that
        attempt did not check, are checked; the others are reused as
        they are (see :meth:`_unaffected`).
        """
        cache = self.cache
        names: Dict[str, NamedType] = {}
        decls: Dict[int, List[TypeDeclaration]] = {}
        for unit in units:
            decls[id(unit)] = unit_decls = []
            try:
                for cls in unit.classes:
                    assert cls.qualified_name is not None
                    t = names[cls.qualified_name] = self.registry.declare(
                        cls.qualified_name,
                        kind=TypeKind.INTERFACE if cls.is_interface else TypeKind.CLASS,
                    )
                    unit_decls.append(self.registry.declaration_of(t))
            except _MODEL_ERRORS as exc:
                _blame(exc, unit, STEP_NAMES)
                raise
        reused = self._reused
        unchecked: Set[int] = set()
        if cache is not None:
            cache.attempts += 1
            self._attempt = cache.attempts
            simples, changed_names, changed_simples = self._changed_bindings(names)
            suspects = cache._declared_by.of(changed_names, changed_simples)
            for unit in units:
                record = cache.declared.get(id(unit))
                if record is None:
                    continue
                if self._unaffected(record, suspects):
                    unchecked.add(id(unit))
                else:
                    cache.checked.add(id(unit))
                    if not self._binds_same(record.trace):
                        cache.drop_declared(id(unit))
                        continue
                record.attempt = self._attempt
                reused[id(unit)] = record
        # Supertypes and members need every corpus type declared first, but
        # the registry fixes supertypes at declare time — so corpus classes
        # record them via a patch pass on the declaration objects. A
        # recorded unit's members take no lookups, so they are set here too.
        for unit in units:
            record = reused.get(id(unit))
            if record is not None:
                for decl, shape in zip(decls[id(unit)], record.shapes):
                    decl.superclass, decl.interfaces = shape[0], shape[1]
                    decl.fields, decl.methods, decl.constructors = map(list, shape[2:])
                continue
            env = self._env(unit)
            try:
                for cls, decl in zip(unit.classes, decls[id(unit)]):
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
            if id(unit) in reused:
                self._corpus_types.extend(decl.type for decl in decls[id(unit)])
                continue
            env = self._env(unit)
            try:
                for cls in unit.classes:
                    self._declare_members(env, cls)
            except _MODEL_ERRORS as exc:
                _blame(exc, unit, STEP_MEMBERS, env.trace)
                raise
            if cache is not None:
                cache.put_declared(
                    _Declared(
                        unit,
                        env.trace,
                        tuple(self._shape(cls) for cls in unit.classes),
                        self._attempt,
                    )
                )
        self.registry.invalidate_caches()  # recorded members were set in place
        self._corpus = set(self._corpus_types)
        if cache is not None:
            own, changed_types = self._changed_types(
                units, names, decls, unchecked, changed_names
            )
            self._seen = _Seen(names, simples, own)
            self._changed = (changed_names, changed_simples, changed_types)
        return list(self._corpus_types)

    def _changed_bindings(
        self, names: Dict[str, NamedType]
    ) -> Tuple[Dict[str, Tuple[NamedType, ...]], Set[str], Set[str]]:
        """Each corpus simple name's types, and the corpus qualified and
        simple names that bind differently from the last successful
        attempt. API declarations are fixed, so no other name can."""
        simples: Dict[str, Tuple[NamedType, ...]] = {}
        for t in names.values():
            simples[t.simple] = simples.get(t.simple, ()) + (t,)
        seen = self.cache.seen  # type: ignore[union-attr]
        changed_simples = {
            simple for simple, _ in set(simples.items()) ^ set(seen.simples.items())
        }
        return simples, set(names.keys() ^ seen.names.keys()), changed_simples

    def _changed_types(
        self,
        units: Sequence[CompilationUnit],
        names: Dict[str, NamedType],
        decls: Dict[int, List[TypeDeclaration]],
        unchecked: Set[int],
        changed_names: Set[str],
    ) -> Tuple[Dict[NamedType, tuple], Set[NamedType]]:
        """Each corpus type's own declaration, and the corpus types whose
        digest can differ from the last successful attempt's: those whose
        own declaration differs, closed over their subtypes. Only a unit
        declared again or checked in full can declare a type anew, and a
        removed type is gone."""
        seen = self.cache.seen  # type: ignore[union-attr]
        changed: Set[NamedType] = set()
        own = dict(seen.own)
        for name in changed_names:
            t = seen.names.get(name)
            if t is not None and name not in names:
                own.pop(t, None)
                changed.add(t)
        for unit in units:
            if id(unit) in unchecked:
                continue
            for decl in decls[id(unit)]:
                shape = _own(decl)
                if own.get(decl.type) != shape:
                    own[decl.type] = shape
                    changed.add(decl.type)
        for t in list(changed):
            changed.update(self.registry.all_subtypes(t))
        return own, changed

    def _unaffected(self, record, suspects: Set[int]) -> bool:
        """Was ``record`` checked or written in the cache's last successful
        attempt, with nothing it recorded changed since? Every name it
        probed then binds as it did, and every type it read has the
        digest it had, so its validity check would pass."""
        last = self.cache.last  # type: ignore[union-attr]
        return record.attempt == last and id(record.unit) not in suspects

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
            record = self._reused.get(key)
            if record is not None:
                env.declaration_trace = record.trace
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
        cache = self.cache
        suspects = cache._read_by.of(*self._changed) if cache is not None else set()
        for unit in units:
            entry = cache.entry(unit) if cache is not None else None
            if entry is not None and entry.digests is not None:
                if self._unaffected(entry, suspects):
                    entry.attempt = self._attempt
                    continue
                cache.checked.add(id(unit))  # type: ignore[union-attr]
                if self._still_valid(entry):
                    entry.attempt = self._attempt
                    continue
            if entry is not None:
                cache.drop(id(unit))  # type: ignore[union-attr]
            try:
                trace = self._resolve_bodies(unit)
            except _MODEL_ERRORS as exc:
                env = self._env(unit)
                _blame(exc, unit, STEP_BODIES, env.declaration_trace, env.trace)
                raise
            if cache is None:
                continue
            cache.resolved.add(id(unit))
            digests = {t: self._digest(t) for t in trace.reads if t in self._corpus}
            cache.put(
                _Entry(unit, trace, None if None in digests.values() else digests, self._attempt)
            )
        if cache is not None:
            cache.last = self._attempt
            cache.seen = self._seen

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
        if entry.digests is None or not self._binds_same(entry.trace):
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
                    _own(d)
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
