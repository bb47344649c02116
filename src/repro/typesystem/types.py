"""Type objects for the Java-style static type model.

The model distinguishes, as the paper does (Definition 1, footnote 4):

* **primitive types** (``int``, ``boolean``, ...) — never used as query
  endpoints nor as signature-graph nodes; they may only appear as the types
  of *free variables*;
* ``void`` — used as a pseudo-input type for zero-argument static methods
  and constructors, so "compute a T from nothing" is a path from ``void``;
* **reference types** — classes, interfaces, and array types. These are the
  signature-graph nodes.

Type identity is by qualified name (plus array dimension). Named and array
types are hash-consed like :class:`~repro.typesystem.names.QualifiedName`:
one live instance per value, so ``==`` and ``hash`` are identity. All
hierarchy questions (subtyping, widening) are answered by
:class:`~repro.typesystem.registry.TypeRegistry`, which owns the
declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Union

from .names import InternTable, QualifiedName, new_frozen


def _variable_stem(text: str) -> str:
    base = "".join(ch for ch in text if ch.isalnum()) or "arg"
    return base[0].lower() + base[1:]


class TypeKind(Enum):
    """Declaration kind of a named reference type."""

    CLASS = "class"
    INTERFACE = "interface"


@dataclass(frozen=True)
class PrimitiveType:
    """A Java primitive type such as ``int`` or ``boolean``."""

    name: str

    def __str__(self) -> str:
        return self.name

    @property
    def display(self) -> str:
        return self.name

    @cached_property
    def variable_stem(self) -> str:
        """The stem of a generated variable name of this type."""
        return _variable_stem(self.name)


@dataclass(frozen=True)
class VoidType:
    """The pseudo-type ``void``, the input of zero-argument jungloids."""

    def __str__(self) -> str:
        return "void"

    @property
    def display(self) -> str:
        return "void"

    @property
    def variable_stem(self) -> str:
        """The stem of a generated variable name of this type."""
        return "void"


#: The singleton ``void`` instance used throughout the library.
VOID = VoidType()

#: The standard Java primitive types, by name.
PRIMITIVES = {
    name: PrimitiveType(name)
    for name in ("boolean", "byte", "short", "char", "int", "long", "float", "double")
}


_NAMED = InternTable()
_ARRAYS = InternTable()
#: ``named()``'s front table, keyed by the dotted string.
_BY_DOTTED = InternTable()


@dataclass(frozen=True, eq=False, init=False)
class NamedType:
    """A class or interface type, identified by qualified name.

    Hash-consed: one live instance per name. The declaration kind lives
    in the registry, not here — a name denotes one declaration.
    """

    name: QualifiedName

    def __new__(cls, name: QualifiedName) -> "NamedType":
        return _NAMED.get(name) or _NAMED.add(name, lambda: new_frozen(cls, name=name))

    def __reduce__(self):
        return (NamedType, (self.name,))

    def __str__(self) -> str:
        return self.name.dotted

    @property
    def simple(self) -> str:
        return self.name.simple

    @property
    def package(self) -> str:
        return self.name.package

    @property
    def display(self) -> str:
        return self.name.dotted

    @cached_property
    def variable_stem(self) -> str:
        """The stem of a generated variable name of this type."""
        return _variable_stem(self.name.simple)


@dataclass(frozen=True, eq=False, init=False)
class ArrayType:
    """An array type ``T[]``; ``element`` may itself be an array type.

    Hash-consed: one live instance per element type.
    """

    element: Union[NamedType, PrimitiveType, "ArrayType"]

    def __new__(
        cls, element: Union[NamedType, PrimitiveType, "ArrayType"]
    ) -> "ArrayType":
        return _ARRAYS.get(element) or _ARRAYS.add(
            element, lambda: new_frozen(cls, element=element)
        )

    def __reduce__(self):
        return (ArrayType, (self.element,))

    def __str__(self) -> str:
        return f"{self.element}[]"

    @property
    def package(self) -> str:
        """Arrays live in the package of their ultimate element type."""
        elem = self.element
        while isinstance(elem, ArrayType):
            elem = elem.element
        if isinstance(elem, NamedType):
            return elem.package
        return ""

    @property
    def dimensions(self) -> int:
        dims = 1
        elem = self.element
        while isinstance(elem, ArrayType):
            dims += 1
            elem = elem.element
        return dims

    @property
    def ultimate_element(self) -> Union[NamedType, PrimitiveType]:
        elem = self.element
        while isinstance(elem, ArrayType):
            elem = elem.element
        return elem

    @property
    def display(self) -> str:
        return str(self)

    @cached_property
    def variable_stem(self) -> str:
        """The stem of a generated variable name of this type."""
        return _variable_stem(str(self))


#: A reference type: a node in the signature graph.
ReferenceType = Union[NamedType, ArrayType]

#: Any type that can appear in a signature.
JavaType = Union[NamedType, ArrayType, PrimitiveType, VoidType]


def is_reference(t: JavaType) -> bool:
    """Return ``True`` if ``t`` is a reference type (class/interface/array)."""
    return isinstance(t, (NamedType, ArrayType))


def named(dotted: str) -> NamedType:
    """The named type for a dotted name: ``named("java.io.File")``."""
    return _BY_DOTTED.get(dotted) or _BY_DOTTED.add(
        dotted, lambda: NamedType(QualifiedName.parse(dotted))
    )


def array_of(t: Union[NamedType, PrimitiveType, ArrayType], dims: int = 1) -> ArrayType:
    """Wrap ``t`` in ``dims`` levels of array type."""
    if dims < 1:
        raise ValueError("array dimension must be >= 1")
    result: ArrayType = ArrayType(t)
    for _ in range(dims - 1):
        result = ArrayType(result)
    return result


def type_package(t: JavaType) -> str:
    """The package a type belongs to, for the package-crossing heuristic.

    Primitives and ``void`` are package-less (they never contribute
    boundary crossings).
    """
    if isinstance(t, NamedType):
        return t.package
    if isinstance(t, ArrayType):
        return t.package
    return ""
