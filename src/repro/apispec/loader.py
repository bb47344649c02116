"""Linking: turn parsed stub files into a populated :class:`TypeRegistry`.

Loading is two-phase so stub files may reference each other in any order:

1. every parsed declaration contributes its qualified name to the *name
   universe* (together with anything already in the registry);
2. all supertype and member type references are resolved against that
   universe, and the declarations are installed.

Simple (undotted) names resolve like Java's: same package first, then
``java.lang``, then a unique simple-name match anywhere in the universe.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..collector import _collector_paused
from ..typesystem import (
    Constructor,
    Field,
    JavaType,
    Method,
    NamedType,
    Parameter,
    PRIMITIVES,
    TypeKind,
    TypeRegistry,
    VOID,
    Visibility,
    array_of,
    named,
)
from .errors import ApiLinkError
from .parser import RawFile, RawMember, RawType, RawTypeDecl, parse_api


def _visibility(modifiers: Sequence[str]) -> Visibility:
    if "private" in modifiers:
        return Visibility.PRIVATE
    if "protected" in modifiers:
        return Visibility.PROTECTED
    # Stub files describe an API surface, so the default is public.
    return Visibility.PUBLIC


class _Linker:
    def __init__(self, registry: TypeRegistry, files: Sequence[RawFile]):
        self._registry = registry
        self._files = files
        self._universe: Dict[str, str] = {}  # qualified name -> qualified name
        self._by_simple: Dict[str, List[str]] = {}
        for t in registry.all_types():
            self._index(t.name.dotted)
        for f in files:
            for decl in f.declarations:
                self._index(decl.qualified_name)

    def _index(self, qualified: str) -> None:
        if qualified in self._universe:
            return
        self._universe[qualified] = qualified
        simple = qualified.rpartition(".")[2]
        self._by_simple.setdefault(simple, []).append(qualified)

    # -- name resolution -------------------------------------------------

    def resolve_name(self, name: str, package: str) -> str:
        if "." in name:
            if name not in self._universe:
                raise ApiLinkError(f"unknown type {name!r}")
            return name
        candidate = f"{package}.{name}" if package else name
        if candidate in self._universe:
            return candidate
        lang = f"java.lang.{name}"
        if lang in self._universe:
            return lang
        matches = self._by_simple.get(name, [])
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ApiLinkError(f"unknown type {name!r} (package {package or '<default>'})")
        raise ApiLinkError(
            f"ambiguous simple name {name!r}: matches {', '.join(sorted(matches))}"
        )

    def resolve_type(self, raw: RawType, package: str) -> JavaType:
        if raw.is_void:
            return VOID
        if raw.is_primitive:
            base: JavaType = PRIMITIVES[raw.name]
        else:
            base = named(self.resolve_name(raw.name, package))
        if raw.dims:
            return array_of(base, raw.dims)  # type: ignore[arg-type]
        return base

    # -- installation ----------------------------------------------------

    def link(self) -> None:
        for f in self._files:
            for decl in f.declarations:
                self._declare(decl)
        for f in self._files:
            for decl in f.declarations:
                self._install_members(decl)

    def _declare(self, decl: RawTypeDecl) -> None:
        package = decl.package
        if decl.is_interface:
            interfaces = [self.resolve_name(t.name, package) for t in decl.extends]
            self._registry.declare(
                decl.qualified_name,
                kind=TypeKind.INTERFACE,
                interfaces=interfaces,
                abstract=True,
            )
            return
        superclass: Optional[str] = None
        if decl.extends:
            if len(decl.extends) > 1:
                raise ApiLinkError(f"class {decl.qualified_name} extends multiple classes")
            superclass = self.resolve_name(decl.extends[0].name, package)
        interfaces = [self.resolve_name(t.name, package) for t in decl.implements]
        self._registry.declare(
            decl.qualified_name,
            kind=TypeKind.CLASS,
            superclass=superclass,
            interfaces=interfaces,
            abstract="abstract" in decl.modifiers,
        )

    def _install_members(self, decl: RawTypeDecl) -> None:
        owner = self._registry.lookup(decl.qualified_name)
        for member in decl.members:
            self._install_member(owner, member, decl.package)

    def _install_member(self, owner: NamedType, member: RawMember, package: str) -> None:
        vis = _visibility(member.modifiers)
        static = "static" in member.modifiers
        if member.is_constructor:
            params = self._parameters(member, package)
            self._registry.add_constructor(
                Constructor(owner=owner, parameters=params, visibility=vis)
            )
            return
        assert member.return_type is not None
        mtype = self.resolve_type(member.return_type, package)
        if member.is_field:
            self._registry.add_field(
                Field(owner=owner, name=member.name, type=mtype, static=static, visibility=vis)
            )
            return
        params = self._parameters(member, package)
        self._registry.add_method(
            Method(
                owner=owner,
                name=member.name,
                return_type=mtype,
                parameters=params,
                static=static,
                visibility=vis,
            )
        )

    def _parameters(self, member: RawMember, package: str) -> Tuple[Parameter, ...]:
        assert member.params is not None
        params = []
        for i, raw in enumerate(member.params):
            ptype = self.resolve_type(raw.type, package)
            if ptype == VOID:
                raise ApiLinkError(f"void parameter in {member.name}")
            params.append(Parameter(raw.name or f"arg{i}", ptype))
        return tuple(params)


@_collector_paused()
def load_api_texts(
    texts: Iterable[Tuple[str, str]], registry: Optional[TypeRegistry] = None
) -> TypeRegistry:
    """Parse and link several ``(source_name, text)`` stub files at once.

    Files are linked as one unit, so forward and cross-file references are
    fine. Returns the (possibly fresh) registry. Runs with the cyclic
    collector paused, like a corpus load.
    """
    registry = registry if registry is not None else TypeRegistry()
    files = [parse_api(text, source) for source, text in texts]
    _Linker(registry, files).link()
    return registry


def load_api_text(text: str, registry: Optional[TypeRegistry] = None) -> TypeRegistry:
    """Parse and link a single stub text."""
    return load_api_texts([("<api>", text)], registry)


def load_api_files(paths: Iterable[str], registry: Optional[TypeRegistry] = None) -> TypeRegistry:
    """Load stub files from disk paths and link them together."""
    texts = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            texts.append((str(path), handle.read()))
    return load_api_texts(texts, registry)
