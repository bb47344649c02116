"""Qualified names and packages for the Java-style type model.

The signature graph's package-crossing ranking heuristic (Section 3.2 of the
paper) needs a notion of *package* for every type, so names are modeled
explicitly rather than as raw strings.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Callable, Dict, Hashable, Tuple, TypeVar

from .errors import InvalidNameError

_IDENTIFIER = r"[A-Za-z_$][A-Za-z0-9_$]*"
_IDENTIFIER_RE = re.compile(rf"^{_IDENTIFIER}$")
#: Matches only dotted names whose every segment ``_IDENTIFIER_RE`` matches.
_DOTTED_RE = re.compile(rf"^{_IDENTIFIER}(?:\.{_IDENTIFIER})*$")

_T = TypeVar("_T")

#: Name of the default (unnamed) package.
DEFAULT_PACKAGE = ""


def is_identifier(text: str) -> bool:
    """Return ``True`` if ``text`` is a valid Java-style identifier."""
    return bool(_IDENTIFIER_RE.match(text))


def check_identifier(text: str) -> str:
    """Validate ``text`` as an identifier, returning it unchanged.

    Raises:
        InvalidNameError: if ``text`` is not a valid identifier.
    """
    if not is_identifier(text):
        raise InvalidNameError(text, "not a valid identifier")
    return text


class InternTable:
    """The weak-valued table behind one hash-consed class.

    It maps a key (the instance's field values) to the single live
    instance for those values. Entries hold weak references, so the
    table never keeps a type alive; a dead instance's entry is dropped
    by its reference's callback. Lookups take no lock. A miss builds the
    instance under :data:`_INTERN_LOCK` and checks the table again under
    it, so two threads never mint two instances of one value.
    """

    __slots__ = ("_refs", "_forget")

    def __init__(self) -> None:
        refs: Dict[Hashable, weakref.KeyedRef] = {}

        def forget(ref: weakref.KeyedRef) -> None:
            with _INTERN_LOCK:
                if refs.get(ref.key) is ref:
                    del refs[ref.key]

        self._refs = refs
        self._forget = forget

    def get(self, key: Hashable):
        """The live instance for ``key``, or ``None``."""
        ref = self._refs.get(key)
        return ref() if ref is not None else None

    def add(self, key: Hashable, make: Callable[[], _T]) -> _T:
        """The live instance for ``key``, built by ``make()`` if there is
        none; an exception from ``make`` propagates and nothing is stored."""
        with _INTERN_LOCK:
            obj = self.get(key)
            if obj is None:
                obj = make()
                self._refs[key] = weakref.KeyedRef(obj, self._forget, key)
            return obj


#: Guards every intern-table miss; reentrant because a collection run
#: inside a miss may fire a callback that drops a dead entry.
_INTERN_LOCK = threading.RLock()


def new_frozen(cls: type, **values: object):
    """A fresh instance of the frozen class ``cls`` with ``values`` set."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def check_dotted(text: str) -> str:
    """Validate ``text`` as a dotted qualified name, returning it unchanged.

    Raises:
        InvalidNameError: for an empty name or a malformed segment.
    """
    _check_parts(*_split_dotted(text))
    return text


def _split_dotted(text: str) -> Tuple[str, str]:
    """``(package, simple)`` of a dotted name; the last segment is simple."""
    if not text:
        raise InvalidNameError(text, "empty name")
    package, _, simple = text.rpartition(".")
    return package, simple


def _check_parts(package: str, simple: str) -> None:
    """The one rule for valid names: every segment is an identifier."""
    if _IDENTIFIER_RE.match(simple) and (not package or _DOTTED_RE.match(package)):
        return  # one match stands for the per-segment checks below
    check_identifier(simple)
    if package:
        for part in package.split("."):
            check_identifier(part)


_NAMES = InternTable()


@total_ordering
@dataclass(frozen=True, eq=False, init=False)
class QualifiedName:
    """A dotted Java-style qualified name, e.g. ``org.eclipse.jdt.core.IJavaElement``.

    Names are hash-consed: constructing one returns the single live
    instance for its ``(package, simple)``, so ``==`` and ``hash`` are
    identity and names serve cheaply as graph node keys. Segments are
    validated once, when a name is first built. Ordering compares
    ``(package, simple)``.
    """

    package: str
    simple: str

    def __new__(cls, package: str, simple: str) -> "QualifiedName":
        key = (package, simple)
        return _NAMES.get(key) or _NAMES.add(key, lambda: cls._build(package, simple))

    @classmethod
    def _build(cls, package: str, simple: str) -> "QualifiedName":
        _check_parts(package, simple)
        return new_frozen(cls, package=package, simple=simple)

    def __reduce__(self):
        return (QualifiedName, (self.package, self.simple))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, QualifiedName):
            return NotImplemented
        return (self.package, self.simple) < (other.package, other.simple)

    @staticmethod
    def parse(text: str) -> "QualifiedName":
        """Parse a dotted name; the last segment is the simple name."""
        return QualifiedName(*_split_dotted(text))

    @cached_property
    def dotted(self) -> str:
        """The full dotted form of this name."""
        if self.package:
            return f"{self.package}.{self.simple}"
        return self.simple

    def package_parts(self) -> Tuple[str, ...]:
        """The package as a tuple of segments (empty for the default package)."""
        if not self.package:
            return ()
        return tuple(self.package.split("."))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.dotted


def package_distance(a: str, b: str) -> int:
    """Number of package "boundaries" crossed going from package ``a`` to ``b``.

    This is the tree distance between the two packages in the package
    hierarchy: segments are popped up to the longest common prefix and then
    pushed down to the target. Two identical packages have distance 0; a
    package and its direct subpackage have distance 1. The ranking heuristic
    uses the sum of these along a jungloid.
    """
    if a == b:
        return 0
    parts_a = tuple(a.split(".")) if a else ()
    parts_b = tuple(b.split(".")) if b else ()
    common = 0
    for x, y in zip(parts_a, parts_b):
        if x != y:
            break
        common += 1
    return (len(parts_a) - common) + (len(parts_b) - common)
