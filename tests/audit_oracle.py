"""The per-edge endpoint audit, kept as the oracle for
:func:`repro.store.audit_graph`.

It checks both endpoints of every edge against the registry, which is
what the store's audit did before it checked each node once. The two
must return the same issues in the same order
(``tests/test_restart_work.py``).
"""

from __future__ import annotations

from typing import List

from repro.graph.nodes import node_base_type
from repro.store import KIND_UNRESOLVED_ENDPOINT, IntegrityIssue


def audit_graph_per_edge(registry, graph) -> List[IntegrityIssue]:
    issues: List[IntegrityIssue] = []
    for edge in graph.edges():
        for node in (edge.source, edge.target):
            base = node_base_type(node)
            if not registry.is_declared(base):
                issues.append(
                    IntegrityIssue(
                        KIND_UNRESOLVED_ENDPOINT,
                        str(edge),
                        f"endpoint type {base} not in registry",
                    )
                )
    return issues
