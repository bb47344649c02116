"""Serialization of registries, mined jungloids, and graphs.

The paper reports the graph representation's footprint (8 MB on disk,
24 MB in memory, 1.5 s to load). Our on-disk format is JSON: the full
type registry plus the mined example paths; loading reparses the JSON and
rebuilds the jungloid graph, which is what the Section-5 benchmark times.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..jungloids import (
    ElementaryJungloid,
    ElementaryKind,
    Jungloid,
    downcast,
    field_access,
    widening,
)
from ..jungloids.elementary import member_jungloid
from ..typesystem import (
    ArrayType,
    Constructor,
    Field,
    JavaType,
    Method,
    NamedType,
    Parameter,
    PRIMITIVES,
    TypeKind,
    TypeRegistry,
    TypeSystemError,
    VOID,
    Visibility,
    array_of,
    named,
)
from .jungloid_graph import JungloidGraph


class BundleFormatError(ValueError):
    """A bundle failed to parse: malformed JSON or a missing/bad key.

    Carries the offending ``key`` or byte ``offset`` when known, so
    callers (CLI exit code 2, snapshot diagnostics) can say *where* a
    bundle is broken instead of leaking a raw ``KeyError``.
    """

    def __init__(
        self,
        message: str,
        key: Optional[str] = None,
        offset: Optional[int] = None,
    ):
        super().__init__(message)
        self.key = key
        self.offset = offset


# ----------------------------------------------------------------------
# Type strings
# ----------------------------------------------------------------------

def type_to_string(t: JavaType) -> str:
    return str(t)


def type_from_string(text: str) -> JavaType:
    dims = 0
    while text.endswith("[]"):
        text = text[:-2]
        dims += 1
    if text == "void":
        base: JavaType = VOID
    elif text in PRIMITIVES:
        base = PRIMITIVES[text]
    else:
        base = named(text)
    if dims:
        return array_of(base, dims)  # type: ignore[arg-type]
    return base


# ----------------------------------------------------------------------
# Registry <-> JSON
# ----------------------------------------------------------------------

def _params_to_list(member: Any) -> List[Dict]:
    return [{"name": p.name, "type": type_to_string(p.type)} for p in member.parameters]


def _method_to_dict(m: Method) -> Dict:
    return {
        "name": m.name,
        "returns": type_to_string(m.return_type),
        "params": _params_to_list(m),
        "static": m.static,
        "visibility": m.visibility.value,
    }


def registry_to_dict(registry: TypeRegistry) -> Dict:
    types = []
    for decl in registry.all_declarations():
        if decl.type == registry.object_type:
            continue  # implicit
        entry = {
            "name": decl.type.name.dotted,
            "kind": decl.kind.value,
            "abstract": decl.abstract,
            "superclass": decl.superclass.name.dotted if decl.superclass else None,
            "interfaces": [i.name.dotted for i in decl.interfaces],
            "fields": [
                {
                    "name": f.name,
                    "type": type_to_string(f.type),
                    "static": f.static,
                    "visibility": f.visibility.value,
                }
                for f in decl.fields
            ],
            "methods": [_method_to_dict(m) for m in decl.methods],
            "constructors": [
                {"params": _params_to_list(c), "visibility": c.visibility.value}
                for c in decl.constructors
            ],
        }
        types.append(entry)
    # java.lang.Object's own members, if any.
    obj = registry.declaration_of(registry.object_type)
    return {
        "format": "prospector-registry-v1",
        "object_methods": [_method_to_dict(m) for m in obj.methods],
        "types": types,
    }


def registry_from_dict(data: Dict) -> TypeRegistry:
    return _decode_registry(data, _parsed_once(type_from_string))


def _decode_registry(data: Dict, parse_type: Callable[[str], JavaType]) -> TypeRegistry:
    if data.get("format") != "prospector-registry-v1":
        raise ValueError(f"unknown registry format: {data.get('format')!r}")
    # One decode parses each distinct type string, parameter and
    # visibility once; the memos live as long as the decode.
    visibility = _parsed_once(Visibility)
    parameter = _parsed_once(lambda p: Parameter(p[0], parse_type(p[1])))

    def parameters(entry: Dict) -> Tuple[Parameter, ...]:
        return tuple(parameter((p["name"], p["type"])) for p in entry["params"])

    def method(owner: NamedType, m: Dict) -> Method:
        return Method(
            owner=owner,
            name=m["name"],
            return_type=parse_type(m["returns"]),
            parameters=parameters(m),
            static=m["static"],
            visibility=visibility(m["visibility"]),
        )

    registry = TypeRegistry()
    for entry in data["types"]:
        registry.declare(
            entry["name"],
            kind=TypeKind(entry["kind"]),
            superclass=entry["superclass"],
            interfaces=entry["interfaces"],
            abstract=entry["abstract"],
        )
    for m in data.get("object_methods", []):
        registry.add_method(method(registry.object_type, m))
    for entry in data["types"]:
        owner = registry.lookup(entry["name"])
        for f in entry["fields"]:
            registry.add_field(
                Field(
                    owner=owner,
                    name=f["name"],
                    type=parse_type(f["type"]),
                    static=f["static"],
                    visibility=visibility(f["visibility"]),
                )
            )
        for m in entry["methods"]:
            registry.add_method(method(owner, m))
        for c in entry["constructors"]:
            ctor = Constructor(owner, parameters(c), visibility(c["visibility"]))
            registry.add_constructor(ctor)
    return registry


def _parsed_once(
    parse: Callable[[Any], Any], key: Optional[Callable[[Any], Any]] = None
) -> Callable[[Any], Any]:
    """``parse``, remembering its result per argument (or per ``key`` of
    it); an argument whose key cannot be taken or hashed goes to
    ``parse`` every time, so it fails as ``parse`` does."""
    memo: Dict[Any, Any] = {}
    missing = object()

    def parsed(arg: Any) -> Any:
        try:
            k = arg if key is None else key(arg)
            found = memo.get(k, missing)
        except (AttributeError, TypeError):
            return parse(arg)
        if found is missing:
            found = memo[k] = parse(arg)
        return found

    return parsed


# ----------------------------------------------------------------------
# Jungloids <-> JSON
# ----------------------------------------------------------------------

def elementary_to_dict(e: ElementaryJungloid) -> Dict:
    entry: Dict = {
        "kind": e.kind.value,
        "input": type_to_string(e.input_type),
        "output": type_to_string(e.output_type),
        "flow": e.flow_position,
    }
    member = e.member
    if isinstance(member, Field):
        entry["member"] = {"field": member.name, "owner": str(member.owner)}
    elif isinstance(member, Method):
        entry["member"] = {
            "method": member.name,
            "owner": str(member.owner),
            "params": [type_to_string(p.type) for p in member.parameters],
        }
    elif isinstance(member, Constructor):
        entry["member"] = {
            "constructor": True,
            "owner": str(member.owner),
            "params": [type_to_string(p.type) for p in member.parameters],
        }
    return entry


def elementary_from_dict(registry: TypeRegistry, entry: Dict) -> ElementaryJungloid:
    return _decode_step(registry, entry, type_from_string)


def _decode_step(
    registry: TypeRegistry, entry: Dict, parse_type: Callable[[str], JavaType]
) -> ElementaryJungloid:
    kind = ElementaryKind(entry["kind"])
    t_in = parse_type(entry["input"])
    t_out = parse_type(entry["output"])
    if kind is ElementaryKind.WIDENING:
        return widening(t_in, t_out)
    if kind is ElementaryKind.DOWNCAST:
        return downcast(t_in, t_out)
    member = entry["member"]
    owner = registry.lookup(member["owner"])
    if kind is ElementaryKind.FIELD_ACCESS:
        f = registry.find_field(owner, member["field"])
        if f is None:
            raise ValueError(f"unknown field {member['owner']}.{member['field']}")
        return field_access(f)
    param_types = tuple(parse_type(p) for p in member.get("params", []))
    if kind is ElementaryKind.CONSTRUCTOR:
        found = [c for c in registry.constructors_of(owner) if c.parameter_types == param_types]
        if not found:
            raise ValueError(f"unknown constructor {member['owner']}({member.get('params')})")
    else:
        found = [
            m for m in registry.find_method(owner, member["method"])
            if m.parameter_types == param_types
        ]
        if not found:
            raise ValueError(f"unknown method {member['owner']}.{member['method']}")
    return member_jungloid(found[0], entry["flow"])


def jungloid_to_dict(j: Jungloid) -> List[Dict]:
    return [elementary_to_dict(e) for e in j.steps]


def jungloid_from_dict(registry: TypeRegistry, steps: List[Dict]) -> Jungloid:
    return Jungloid(tuple(elementary_from_dict(registry, s) for s in steps))


# ----------------------------------------------------------------------
# Whole-graph bundle
# ----------------------------------------------------------------------

def bundle_to_json(
    registry: TypeRegistry, mined: Iterable[Jungloid] = (), indent: Optional[int] = None
) -> str:
    """Serialize everything needed to rebuild a jungloid graph."""
    data = {
        "format": "prospector-bundle-v1",
        "registry": registry_to_dict(registry),
        "mined": [jungloid_to_dict(j) for j in mined],
    }
    return json.dumps(data, indent=indent)


def bundle_from_json(text: str) -> Tuple[TypeRegistry, List[Jungloid]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleFormatError(
            f"bundle is not valid JSON at offset {exc.pos}: {exc.msg}",
            offset=exc.pos,
        ) from exc
    if not isinstance(data, dict):
        raise BundleFormatError(
            f"bundle must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != "prospector-bundle-v1":
        raise BundleFormatError(
            f"unknown bundle format: {data.get('format')!r}", key="format"
        )
    try:
        # One memo parses each distinct type string once, and mined
        # jungloids share steps: each distinct step is decoded once.
        parse_type = _parsed_once(type_from_string)
        registry = _decode_registry(data["registry"], parse_type)
        step = _parsed_once(lambda e: _decode_step(registry, e, parse_type), key=_step_key)
        mined = [Jungloid(tuple(step(s) for s in steps)) for steps in data["mined"]]
    except BundleFormatError:
        raise
    except KeyError as exc:
        key = str(exc.args[0]) if exc.args else "?"
        raise BundleFormatError(f"bundle missing key {key!r}", key=key) from exc
    except (TypeError, ValueError, TypeSystemError) as exc:
        raise BundleFormatError(f"bundle malformed: {exc}") from exc
    return registry, mined


def _step_key(entry: Dict) -> Tuple:
    """Every value :func:`_decode_step` reads: equal keys, equal steps."""
    member = entry.get("member") or {}
    return (
        entry.get("kind"), entry.get("input"), entry.get("output"), entry.get("flow"),
        member.get("owner"), member.get("field"), member.get("method"),
        tuple(member.get("params", ())),
    )


def load_graph_from_json(text: str) -> JungloidGraph:
    """Rebuild the full jungloid graph from a serialized bundle.

    This is the operation whose latency the Section-5 bench reports as
    "load time".
    """
    registry, mined = bundle_from_json(text)
    return JungloidGraph.build(registry, mined)
