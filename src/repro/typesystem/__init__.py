"""Java-style static type model: the substrate for jungloid synthesis.

The original PROSPECTOR reads Java class files; this package provides the
equivalent model — types, members, visibility, and the class hierarchy —
that every other subsystem (signature graph, mining, mini-Java checker)
consumes.
"""

from .errors import (
    DuplicateMemberError,
    DuplicateTypeError,
    HierarchyError,
    InvalidNameError,
    TypeSystemError,
    UnknownTypeError,
)
from .hierarchy import (
    common_supertype,
    generality_key,
    is_assignable,
    least_upper_bounds,
    more_general,
    subtype_closure,
    topological_types,
)
from .members import Constructor, Field, Method, Parameter, Visibility
from .names import (
    DEFAULT_PACKAGE,
    QualifiedName,
    check_dotted,
    check_identifier,
    is_identifier,
    package_distance,
)
from .registry import OBJECT_NAME, TypeDeclaration, TypeRegistry
from .types import (
    PRIMITIVES,
    VOID,
    ArrayType,
    JavaType,
    NamedType,
    PrimitiveType,
    ReferenceType,
    TypeKind,
    VoidType,
    array_of,
    is_reference,
    named,
    type_package,
)

__all__ = [
    "ArrayType",
    "Constructor",
    "DEFAULT_PACKAGE",
    "DuplicateMemberError",
    "DuplicateTypeError",
    "Field",
    "HierarchyError",
    "InvalidNameError",
    "JavaType",
    "Method",
    "NamedType",
    "OBJECT_NAME",
    "PRIMITIVES",
    "Parameter",
    "PrimitiveType",
    "QualifiedName",
    "ReferenceType",
    "TypeDeclaration",
    "TypeKind",
    "TypeRegistry",
    "TypeSystemError",
    "UnknownTypeError",
    "VOID",
    "Visibility",
    "VoidType",
    "array_of",
    "check_dotted",
    "check_identifier",
    "common_supertype",
    "generality_key",
    "is_assignable",
    "is_identifier",
    "is_reference",
    "least_upper_bounds",
    "more_general",
    "named",
    "package_distance",
    "subtype_closure",
    "topological_types",
    "type_package",
]
