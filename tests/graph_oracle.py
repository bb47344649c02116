"""The eager signature-graph build, kept as the oracle for
:meth:`repro.graph.SignatureGraph.from_registry`.

It builds every member's elementary jungloids up front, with the
``static_call``/``instance_call``/``constructor_call`` builders, and adds
one edge per jungloid, which is what ``from_registry`` did before its
member edges built their jungloids on first read. The two must lay out
the same nodes and the same adjacency lists, and the decoder must give
the same steps as the one-variant decoding (``tests/test_lazy_edges.py``).
"""

from __future__ import annotations

from repro.graph import Edge, SignatureGraph, elementary_from_dict, type_from_string
from repro.jungloids import (
    ElementaryKind,
    constructor_call,
    field_access,
    instance_call,
    static_call,
)
from repro.typesystem import VOID, ArrayType, TypeKind, is_reference


def eager_signature_graph(registry, public_only=True, include_downcasts=False) -> SignatureGraph:
    graph = SignatureGraph(registry)
    graph.add_node(VOID)
    for decl in registry.all_declarations():
        graph.add_node(decl.type)
    for decl in registry.all_declarations():
        steps = [field_access(f) for f in decl.fields if not public_only or f.is_public]
        for m in decl.methods:
            if not public_only or m.is_public:
                steps.extend(static_call(m) if m.static else instance_call(m))
        if decl.kind is TypeKind.CLASS and not decl.abstract:
            for c in decl.constructors:
                if not public_only or c.is_public:
                    steps.extend(constructor_call(c))
        for step in steps:
            t_in, t_out = step.input_type, step.output_type
            if not (is_reference(t_in) or t_in == VOID) or not is_reference(t_out):
                continue
            for node in (t_in, t_out):
                if isinstance(node, ArrayType):
                    graph.add_node(node)
            graph.add_edge(Edge(t_in, t_out, step))
    graph._add_widening_edges()
    if include_downcasts:
        graph._add_all_downcast_edges()
    return graph


def decode_step_from_all_variants(registry, entry):
    """``elementary_from_dict`` as it was: build every call variant of the
    named member and keep the one with the recorded flow position."""
    kind = ElementaryKind(entry["kind"])
    if kind not in (ElementaryKind.CONSTRUCTOR, ElementaryKind.STATIC_CALL,
                    ElementaryKind.INSTANCE_CALL):
        return elementary_from_dict(registry, entry)
    member = entry["member"]
    owner = registry.lookup(member["owner"])
    param_types = tuple(type_from_string(p) for p in member.get("params", []))
    if kind is ElementaryKind.CONSTRUCTOR:
        c = next(c for c in registry.constructors_of(owner) if c.parameter_types == param_types)
        variants = constructor_call(c)
    else:
        m = next(m for m in registry.find_method(owner, member["method"])
                 if m.parameter_types == param_types)
        variants = static_call(m) if m.static else instance_call(m)
    (step,) = [v for v in variants if v.flow_position == entry["flow"]]
    return step
