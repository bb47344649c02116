"""The type registry: the universe of declared API types.

A :class:`TypeRegistry` plays the role the compiled class files play for
the original PROSPECTOR: it is the single source of truth for declarations
— classes, interfaces, their members, and the subtype edges between them.
The signature graph (Section 3.1) is constructed by iterating over a
registry's declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import DuplicateMemberError, DuplicateTypeError, HierarchyError, UnknownTypeError
from .members import Constructor, Field, Method, Visibility
from .names import QualifiedName, check_dotted
from .types import ArrayType, JavaType, NamedType, TypeKind, named


@dataclass
class TypeDeclaration:
    """Everything declared about one named reference type."""

    type: NamedType
    kind: TypeKind
    superclass: Optional[NamedType] = None
    interfaces: Tuple[NamedType, ...] = ()
    fields: List[Field] = field(default_factory=list)
    methods: List[Method] = field(default_factory=list)
    constructors: List[Constructor] = field(default_factory=list)
    abstract: bool = False

    @property
    def name(self) -> QualifiedName:
        return self.type.name

    def direct_supertypes(self) -> Tuple[NamedType, ...]:
        supers: List[NamedType] = []
        if self.superclass is not None:
            supers.append(self.superclass)
        supers.extend(self.interfaces)
        return tuple(supers)


#: Qualified name of the root class.
OBJECT_NAME = "java.lang.Object"


class TypeRegistry:
    """A mutable universe of type declarations with hierarchy queries.

    The registry always contains ``java.lang.Object``; every class without
    an explicit superclass implicitly extends it, and (as in Java) every
    interface type is a subtype of ``Object`` for conversion purposes.
    """

    def __init__(self) -> None:
        self._declarations: Dict[QualifiedName, TypeDeclaration] = {}
        #: The same declarations keyed by dotted name, for string lookups.
        self._by_dotted: Dict[str, TypeDeclaration] = {}
        self._by_simple: Dict[str, Tuple[NamedType, ...]] = {}
        #: Names whose declaration this registry may write in place; it
        #: shares the others with a clone (see :meth:`clone`).
        self._owned: Set[QualifiedName] = set()
        self._subtype_cache: Dict[Tuple[JavaType, JavaType], bool] = {}
        self._supertypes_cache: Dict[NamedType, Tuple[NamedType, ...]] = {}
        #: Direct-subtype index: supertype name -> names declared below it.
        #: A clone shares the sets, so an edit replaces a set.
        self._subclasses: Dict[QualifiedName, FrozenSet[QualifiedName]] = {}
        #: Each owned name -> the supertype names the index holds it under.
        self._indexed: Dict[QualifiedName, Tuple[QualifiedName, ...]] = {}
        #: An owned declaration may have changed supertypes since it was
        #: indexed (see :meth:`_subclass_index`).
        self._index_stale = False
        self._methods_memo: Dict[NamedType, Tuple[Method, ...]] = {}
        self._fields_memo: Dict[NamedType, Tuple[Field, ...]] = {}
        self.object_type = self._declare_object()

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------

    def _declare_object(self) -> NamedType:
        obj = named(OBJECT_NAME)
        self._add(TypeDeclaration(type=obj, kind=TypeKind.CLASS, superclass=None))
        return obj

    def _add(self, decl: TypeDeclaration) -> None:
        t = decl.type
        self._declarations[t.name] = decl
        self._by_dotted[t.name.dotted] = decl
        # A clone shares the tuples, so a new name replaces its tuple.
        self._by_simple[t.simple] = self._by_simple.get(t.simple, ()) + (t,)
        self._owned.add(t.name)
        self._index_stale = True

    def declare(
        self,
        dotted_name: str,
        kind: TypeKind = TypeKind.CLASS,
        superclass: Optional[str] = None,
        interfaces: Iterable[str] = (),
        abstract: bool = False,
    ) -> NamedType:
        """Declare a new class or interface and return its type.

        ``superclass`` defaults to ``java.lang.Object`` for classes; an
        interface has no superclass (its supertypes are its extended
        interfaces, passed via ``interfaces``).
        """
        t = named(dotted_name)
        if t.name in self._declarations:
            raise DuplicateTypeError(t.name.dotted)
        sup: Optional[NamedType]
        if kind is TypeKind.CLASS:
            if dotted_name == OBJECT_NAME:
                sup = None
            elif superclass is None:
                sup = self.object_type
            else:
                sup = named(superclass)
        else:
            if superclass is not None:
                raise HierarchyError(f"interface {dotted_name} cannot extend a class")
            sup = None
        self._add(
            TypeDeclaration(
                type=t,
                kind=kind,
                superclass=sup,
                interfaces=tuple(named(i) for i in interfaces),
                abstract=abstract,
            )
        )
        self._invalidate_caches()
        return t

    def _writable(self, owner: JavaType) -> TypeDeclaration:
        """``owner``'s declaration, first copied if a clone shares it."""
        decl = self.declaration_of(owner)
        if decl.name not in self._owned:
            # A shared declaration is indexed under its supertypes.
            self._indexed[decl.name] = self._supertype_names(decl)
            decl = replace(
                decl,
                fields=list(decl.fields),
                methods=list(decl.methods),
                constructors=list(decl.constructors),
            )
            self._declarations[decl.name] = decl
            self._by_dotted[decl.name.dotted] = decl
            self._owned.add(decl.name)
        return decl

    def add_field(self, f: Field) -> Field:
        decl = self._writable(f.owner)
        for existing in decl.fields:
            if existing.name == f.name:
                raise DuplicateMemberError(str(f.owner), f"field {f.name}")
        decl.fields.append(f)
        self._invalidate_members()
        return f

    def add_method(self, m: Method) -> Method:
        decl = self._writable(m.owner)
        for existing in decl.methods:
            if existing.name == m.name and existing.parameter_types == m.parameter_types:
                raise DuplicateMemberError(str(m.owner), m.descriptor())
        decl.methods.append(m)
        self._invalidate_members()
        return m

    def add_constructor(self, c: Constructor) -> Constructor:
        decl = self._writable(c.owner)
        for existing in decl.constructors:
            if existing.parameter_types == c.parameter_types:
                raise DuplicateMemberError(str(c.owner), c.descriptor())
        decl.constructors.append(c)
        self._invalidate_members()
        return c

    def clone(self) -> "TypeRegistry":
        """A copy of this registry whose edits neither one sees.

        Copy-on-write: the clone shares every :class:`TypeDeclaration`
        with this registry and copies only the name maps, and neither
        registry owns a shared declaration any more. ``add_field``,
        ``add_method`` and ``add_constructor`` copy a declaration their
        registry does not own before the first write. A type declared
        later is owned by the registry that declared it, which may patch
        it in place: the corpus resolver sets its corpus classes'
        supertypes and members that way. The direct-subtype index is
        shared the same way: this registry brings it up to date, and the
        clone indexes only the declarations it comes to own.
        """
        index = self._subclass_index()
        other = TypeRegistry.__new__(TypeRegistry)
        other._declarations = dict(self._declarations)
        other._by_dotted = dict(self._by_dotted)
        other._by_simple = dict(self._by_simple)
        other._owned = set()
        self._owned.clear()
        other._subtype_cache = {}
        other._supertypes_cache = {}
        other._subclasses = dict(index)
        other._indexed = {}
        self._indexed = {}
        other._index_stale = False
        other._methods_memo = {}
        other._fields_memo = {}
        other.object_type = self.object_type
        return other

    def _invalidate_caches(self) -> None:
        self._subtype_cache.clear()
        self._supertypes_cache.clear()
        self._index_stale = True
        self._invalidate_members()

    def _invalidate_members(self) -> None:
        self._methods_memo.clear()
        self._fields_memo.clear()

    def invalidate_caches(self) -> None:
        """Drop memoized hierarchy queries after direct declaration edits.

        The mini-Java resolver patches supertypes (and recorded members)
        onto the corpus declarations it owns after the fact; it must call
        this so hierarchy and member queries see the edits.
        """
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __contains__(self, dotted_name: str) -> bool:
        if dotted_name in self._by_dotted:
            return True
        check_dotted(dotted_name)  # a malformed name raises
        return False

    def get(self, dotted_name: str) -> Optional[NamedType]:
        """The declared type with this fully qualified name, or ``None``."""
        decl = self._by_dotted.get(dotted_name)
        return decl.type if decl is not None else None

    def lookup(self, dotted_name: str) -> NamedType:
        """Look up a declared type by its fully qualified name."""
        decl = self._by_dotted.get(dotted_name)
        if decl is None:
            check_dotted(dotted_name)  # a malformed name raises
            raise UnknownTypeError(dotted_name)
        return decl.type

    def lookup_simple(self, simple_name: str) -> List[NamedType]:
        """All declared types whose simple name matches (for import resolution)."""
        return list(self._by_simple.get(simple_name, ()))

    def declaration_of(self, t: JavaType) -> TypeDeclaration:
        if not isinstance(t, NamedType):
            raise UnknownTypeError(str(t))
        decl = self._declarations.get(t.name)
        if decl is None:
            raise UnknownTypeError(t.name.dotted)
        return decl

    def is_declared(self, t: JavaType) -> bool:
        if isinstance(t, NamedType):
            return t.name in self._declarations
        if isinstance(t, ArrayType):
            elem = t.ultimate_element
            return not isinstance(elem, NamedType) or self.is_declared(elem)
        return True

    def all_declarations(self) -> Iterator[TypeDeclaration]:
        return iter(self._declarations.values())

    def all_types(self) -> Iterator[NamedType]:
        return (d.type for d in self._declarations.values())

    def __len__(self) -> int:
        return len(self._declarations)

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------

    def direct_supertypes(self, t: NamedType) -> Tuple[NamedType, ...]:
        """Declared direct supertypes (superclass first, then interfaces).

        Interfaces with no declared supertype report ``Object`` so that the
        widening edge lattice is rooted, matching Java conversion rules.
        """
        decl = self.declaration_of(t)
        supers = decl.direct_supertypes()
        if not supers and t.name.dotted != OBJECT_NAME:
            return (self.object_type,)
        return supers

    def all_supertypes(self, t: NamedType) -> Tuple[NamedType, ...]:
        """All transitive supertypes, not including ``t`` itself."""
        cached = self._supertypes_cache.get(t)
        if cached is not None:
            return cached
        seen: Dict[NamedType, None] = {}
        stack = list(self.direct_supertypes(t))
        trail: Set[NamedType] = {t}
        while stack:
            s = stack.pop(0)
            if s in seen:
                continue
            if s in trail:
                raise HierarchyError(f"subtyping cycle through {s}")
            if not self.is_declared(s):
                raise UnknownTypeError(str(s))
            seen[s] = None
            stack.extend(self.direct_supertypes(s))
        result = tuple(seen)
        self._supertypes_cache[t] = result
        return result

    def direct_subtypes(self, t: NamedType) -> Tuple[NamedType, ...]:
        """Declared types whose direct supertypes include ``t``."""
        names = self._subclass_index().get(t.name, ())
        return tuple(sorted((self._declarations[n].type for n in names), key=lambda x: x.name))

    def all_subtypes(self, t: NamedType) -> Tuple[NamedType, ...]:
        """All transitive subtypes, not including ``t`` itself."""
        result: List[NamedType] = []
        seen: Set[NamedType] = set()
        stack = list(self.direct_subtypes(t))
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            result.append(s)
            stack.extend(self.direct_subtypes(s))
        return tuple(result)

    def _subclass_index(self) -> Dict[QualifiedName, FrozenSet[QualifiedName]]:
        """The direct-subtype index, with every owned declaration indexed
        under its current supertypes. A shared declaration's supertypes
        never change, so its entries stay as the registry that owned it
        left them."""
        if self._index_stale:
            self._index_declarations(self._owned)
            self._index_stale = False
        return self._subclasses

    def _supertype_names(self, decl: TypeDeclaration) -> Tuple[QualifiedName, ...]:
        if decl.type == self.object_type:
            return ()
        return tuple(s.name for s in self.direct_supertypes(decl.type))

    def _index_declarations(self, names: Iterable[QualifiedName]) -> None:
        """Move each of ``names``' index entries to its current supertypes."""
        gained: Dict[QualifiedName, Set[QualifiedName]] = {}
        lost: Dict[QualifiedName, Set[QualifiedName]] = {}
        for name in names:
            supers = self._supertype_names(self._declarations[name])
            old = self._indexed.get(name, ())
            if supers == old:
                continue
            for sup in old:
                lost.setdefault(sup, set()).add(name)
            for sup in supers:
                gained.setdefault(sup, set()).add(name)
            self._indexed[name] = supers
        index = self._subclasses
        for sup in gained.keys() | lost.keys():
            below = index.get(sup, frozenset())
            index[sup] = below.difference(lost.get(sup, ())).union(gained.get(sup, ()))

    def is_subtype(self, sub: JavaType, sup: JavaType) -> bool:
        """Reflexive, transitive subtype test including array covariance."""
        if sub == sup:
            return True
        key = (sub, sup)
        cached = self._subtype_cache.get(key)
        if cached is not None:
            return cached
        result = self._is_subtype_uncached(sub, sup)
        self._subtype_cache[key] = result
        return result

    def _is_subtype_uncached(self, sub: JavaType, sup: JavaType) -> bool:
        if isinstance(sub, NamedType) and isinstance(sup, NamedType):
            if sup == self.object_type:
                return True
            return sup in self.all_supertypes(sub)
        if isinstance(sub, ArrayType):
            if isinstance(sup, NamedType):
                # T[] <: Object (and the standard array interfaces if declared).
                if sup == self.object_type:
                    return True
                return sup.name.dotted in ("java.lang.Cloneable", "java.io.Serializable")
            if isinstance(sup, ArrayType):
                se, pe = sub.element, sup.element
                if isinstance(se, NamedType) and isinstance(pe, NamedType):
                    return self.is_subtype(se, pe)
                if isinstance(se, ArrayType) and isinstance(pe, ArrayType):
                    return self.is_subtype(se, pe)
                return se == pe
        return False

    def widening_targets(self, t: JavaType) -> Tuple[NamedType, ...]:
        """Direct widening-conversion targets of ``t`` (one hierarchy step).

        For arrays this is ``Object`` (we do not chase array covariance in
        the graph; covariant array edges add little and bloat the node set).
        """
        if isinstance(t, NamedType):
            return self.direct_supertypes(t)
        if isinstance(t, ArrayType):
            return (self.object_type,)
        return ()

    def depth(self, t: NamedType) -> int:
        """Longest supertype-chain length from ``t`` up to ``Object``.

        Used by the ranking heuristic's generality tie-break: among equal
        length jungloids, one returning a *more general* type (smaller
        depth) ranks higher (Section 3.2).
        """
        if t == self.object_type:
            return 0
        return 1 + max((self.depth(s) for s in self.direct_supertypes(t)), default=0)

    # ------------------------------------------------------------------
    # Member lookup with inheritance
    # ------------------------------------------------------------------

    def declared_methods(self, t: NamedType) -> Tuple[Method, ...]:
        return tuple(self.declaration_of(t).methods)

    def declared_fields(self, t: NamedType) -> Tuple[Field, ...]:
        return tuple(self.declaration_of(t).fields)

    def constructors_of(self, t: NamedType) -> Tuple[Constructor, ...]:
        return tuple(self.declaration_of(t).constructors)

    def all_methods(self, t: NamedType) -> Tuple[Method, ...]:
        """Declared plus inherited methods; overrides shadow supertypes."""
        cached = self._methods_memo.get(t)
        if cached is not None:
            return cached
        seen: Dict[Tuple[str, Tuple[JavaType, ...]], Method] = {}
        for owner in (t,) + self.all_supertypes(t):
            for m in self.declaration_of(owner).methods:
                key = (m.name, m.parameter_types)
                if key not in seen:
                    seen[key] = m
        result = tuple(seen.values())
        self._methods_memo[t] = result
        return result

    def all_fields(self, t: NamedType) -> Tuple[Field, ...]:
        """Declared plus inherited fields; redeclarations shadow supertypes."""
        cached = self._fields_memo.get(t)
        if cached is not None:
            return cached
        seen: Dict[str, Field] = {}
        for owner in (t,) + self.all_supertypes(t):
            for f in self.declaration_of(owner).fields:
                if f.name not in seen:
                    seen[f.name] = f
        result = tuple(seen.values())
        self._fields_memo[t] = result
        return result

    def find_method(
        self, t: NamedType, name: str, arity: Optional[int] = None
    ) -> Tuple[Method, ...]:
        """All (inherited-visible) methods named ``name`` on ``t``."""
        return tuple(
            m
            for m in self.all_methods(t)
            if m.name == name and (arity is None or m.arity == arity)
        )

    def find_field(self, t: NamedType, name: str) -> Optional[Field]:
        for f in self.all_fields(t):
            if f.name == name:
                return f
        return None

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Summary counts, printed by the Section-5 performance bench."""
        n_methods = sum(len(d.methods) for d in self._declarations.values())
        n_fields = sum(len(d.fields) for d in self._declarations.values())
        n_ctors = sum(len(d.constructors) for d in self._declarations.values())
        n_interfaces = sum(
            1 for d in self._declarations.values() if d.kind is TypeKind.INTERFACE
        )
        return {
            "types": len(self._declarations),
            "classes": len(self._declarations) - n_interfaces,
            "interfaces": n_interfaces,
            "methods": n_methods,
            "fields": n_fields,
            "constructors": n_ctors,
        }
