"""Signature and jungloid graphs, statistics, serialization, DOT export."""

from .dot import path_dot, subgraph_dot
from .jungloid_graph import JungloidGraph, MinedDelta
from .nodes import Edge, Node, TypestateNode, node_base_type, node_label
from .serialize import (
    BundleFormatError,
    bundle_from_json,
    bundle_to_json,
    elementary_from_dict,
    elementary_to_dict,
    jungloid_from_dict,
    jungloid_to_dict,
    load_graph_from_json,
    registry_from_dict,
    registry_to_dict,
    type_from_string,
    type_to_string,
)
from .signature_graph import SignatureGraph
from .stats import GraphStats, graph_stats

__all__ = [
    "BundleFormatError",
    "Edge",
    "GraphStats",
    "JungloidGraph",
    "MinedDelta",
    "Node",
    "SignatureGraph",
    "TypestateNode",
    "bundle_from_json",
    "bundle_to_json",
    "elementary_from_dict",
    "elementary_to_dict",
    "graph_stats",
    "jungloid_from_dict",
    "jungloid_to_dict",
    "load_graph_from_json",
    "node_base_type",
    "node_label",
    "path_dot",
    "registry_from_dict",
    "registry_to_dict",
    "subgraph_dot",
    "type_from_string",
    "type_to_string",
]
