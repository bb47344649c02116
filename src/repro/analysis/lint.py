"""Corpus lint engine: structured diagnostics with stable codes.

Linting answers "is this corpus trustworthy evidence for mining?" — the
paper's whole premise is that working client code witnesses viable API
paths, so code that does *not* work (or can't be parsed/resolved) is
noise the miner should not learn from. Every finding is a
:class:`Diagnostic` with a stable code, a severity, and a position, so
CI gates (``python -m repro lint --fail-on error``) and tests can assert
on exact codes rather than message text.

Stable diagnostic codes
=======================

======  ========  =====================================================
code    severity  meaning
======  ========  =====================================================
JL001   error     corpus file does not parse
JL002   error     corpus file does not resolve (unknown types/members)
JL100   error     type error (general type-check issue)
JL101   error     cast between unrelated types
JL102   error     inviable cast: type-plausible, but every corpus flow
                  is definite and incompatible (flow analysis)
JL201   warning   corpus class shadows an API simple name
JL202   warning   never-witnessed downcast edge in the jungloid graph
JL203   warning   dead typestate node after grafting (no in or no out)
JL301   info      local variable declared but never read
======  ========  =====================================================

Severities order ``info < warning < error``; the report's exit behavior
is a threshold over that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..corpus.loader import CorpusProgram, load_corpus_texts
from ..minijava import (
    AssignStmt,
    LocalVarDecl,
    Position,
    VarRef,
    check_program,
    statement_expressions,
    walk_expressions,
    walk_statements,
)
from ..robustness import PHASE_PARSE
from ..typesystem import TypeRegistry
from .castsafety import CastAnalyzer, classify_pair, group_observations
from .verdicts import CastVerdict

# ----------------------------------------------------------------------
# Diagnostic model
# ----------------------------------------------------------------------

SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

#: Threshold order for ``--fail-on``.
SEVERITY_ORDER = {SEVERITY_INFO: 0, SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}

#: The stable code table: code → (severity, short name).
LINT_CODES: Dict[str, Tuple[str, str]] = {
    "JL001": (SEVERITY_ERROR, "parse-error"),
    "JL002": (SEVERITY_ERROR, "resolve-error"),
    "JL100": (SEVERITY_ERROR, "type-error"),
    "JL101": (SEVERITY_ERROR, "unrelated-cast"),
    "JL102": (SEVERITY_ERROR, "inviable-cast"),
    "JL201": (SEVERITY_WARNING, "shadowed-api-name"),
    "JL202": (SEVERITY_WARNING, "never-witnessed-downcast"),
    "JL203": (SEVERITY_WARNING, "dead-typestate-node"),
    "JL301": (SEVERITY_INFO, "unused-declaration"),
}

#: Synthetic source name for graph-level diagnostics (no corpus file).
GRAPH_SOURCE = "<graph>"


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding with a stable code and a position."""

    code: str
    message: str
    source: str
    position: Optional[Position] = None

    @property
    def severity(self) -> str:
        return LINT_CODES[self.code][0]

    @property
    def name(self) -> str:
        return LINT_CODES[self.code][1]

    @property
    def location(self) -> str:
        if self.position is None:
            return self.source
        return f"{self.source}:{self.position.line}:{self.position.column}"

    def __str__(self) -> str:
        return f"{self.location}: {self.severity} {self.code} [{self.name}] {self.message}"


@dataclass
class LintReport:
    """All diagnostics from one lint run, with threshold helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Sources that survived parse+resolve and were fully analyzed.
    linted_sources: List[str] = field(default_factory=list)

    def record(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def count_at_least(self, severity: str) -> int:
        floor = SEVERITY_ORDER[severity]
        return sum(
            1 for d in self.diagnostics if SEVERITY_ORDER[d.severity] >= floor
        )

    def failed(self, fail_on: str = SEVERITY_INFO) -> bool:
        """Whether the run should gate, given a severity threshold."""
        return self.count_at_least(fail_on) > 0

    def by_code(self, code: str) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    @property
    def codes(self) -> Tuple[str, ...]:
        return tuple(sorted({d.code for d in self.diagnostics}))

    def to_dict(self) -> dict:
        return {
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity,
                    "name": d.name,
                    "message": d.message,
                    "source": d.source,
                    "line": d.position.line if d.position else None,
                    "column": d.position.column if d.position else None,
                }
                for d in self.diagnostics
            ],
            "counts": {
                SEVERITY_ERROR: self.count_at_least(SEVERITY_ERROR),
                SEVERITY_WARNING: self.count_at_least(SEVERITY_WARNING)
                - self.count_at_least(SEVERITY_ERROR),
                SEVERITY_INFO: len(self.diagnostics)
                - self.count_at_least(SEVERITY_WARNING),
            },
            "linted_sources": list(self.linted_sources),
        }


# ----------------------------------------------------------------------
# The lint passes
# ----------------------------------------------------------------------


def run_lint(
    api_registry: TypeRegistry,
    texts: Iterable[Tuple[str, str]],
    graph=None,
    verdicts=None,
    program: Optional[CorpusProgram] = None,
) -> LintReport:
    """Lint ``(source, text)`` corpus files against an API registry.

    Unlike the mining loader, type-bad files are **not** quarantined —
    the check issues are exactly what lint exists to report — so
    resolution runs lenient but checking is done here, over the full
    resolved set. Pass an already-built jungloid ``graph`` (and
    optionally its ``verdicts`` index) to additionally run the
    graph-level checks (JL202/JL203); building one is the caller's
    choice because grafting is comparatively expensive. A caller that
    already loaded ``texts`` the way passes 1–2 do
    (``load_corpus_texts(..., check=False, lenient=True)``) passes that
    ``program``, and nothing is parsed or resolved again.
    """
    report = LintReport()

    # Passes 1-2: parse (JL001) and resolve leniently (JL002), with
    # check=False: checking here with quarantine on would eject precisely
    # the files whose type issues we want to surface.
    if program is None:
        program = load_corpus_texts(api_registry, texts, check=False, lenient=True)
    registry, units = program.registry, program.units
    for fault in program.diagnostics.faults:
        code = "JL001" if fault.phase == PHASE_PARSE else "JL002"
        report.record(
            Diagnostic(code=code, message=fault.error, source=fault.source)
        )

    # Pass 3: type check the surviving units (JL100/JL101).
    check = check_program(registry, units)
    for issue in check.issues:
        code = (
            "JL101"
            if issue.message.startswith("cast between unrelated types")
            else "JL100"
        )
        report.record(
            Diagnostic(
                code=code,
                message=issue.message,
                source=issue.source,
                position=issue.position,
            )
        )

    # Pass 4: flow analysis (JL102) — type-plausible casts whose every
    # corpus flow is definite and incompatible. Implausible pairs were
    # already reported as JL101 by the checker; skip them here.
    analyzer = CastAnalyzer(registry, units, program.corpus_types)
    observations = analyzer.analyze_all()
    for pair, group in sorted(group_observations(observations).items()):
        finding = classify_pair(group)
        if finding.verdict is not CastVerdict.INVIABLE:
            continue
        if not group[0].plausible:
            continue  # JL101 already covers the implausible form
        for obs in group:
            proved = ", ".join(obs.definite_types) or "nothing"
            report.record(
                Diagnostic(
                    code="JL102",
                    message=(
                        f"inviable cast ({obs.target}) from {obs.operand}: "
                        f"corpus flow only proves {proved}"
                    ),
                    source=obs.source,
                    position=obs.position,
                )
            )

    # Pass 5: API-name shadowing (JL201).
    for unit in units:
        for cls in unit.classes:
            if api_registry.lookup_simple(cls.name):
                report.record(
                    Diagnostic(
                        code="JL201",
                        message=(
                            f"corpus class '{cls.name}' shadows an API type "
                            "of the same simple name"
                        ),
                        source=unit.source,
                        position=cls.position,
                    )
                )

    # Pass 6: unused locals (JL301).
    for unit in units:
        for cls in unit.classes:
            for method in cls.methods:
                for diag in _unused_locals(unit.source, method):
                    report.record(diag)

    # Pass 7 (optional): graph-level checks.
    if graph is not None:
        for diag in lint_graph(graph, verdicts):
            report.record(diag)

    report.linted_sources = [u.source for u in units]
    return report


def _unused_locals(source: str, method) -> List[Diagnostic]:
    """JL301: locals declared (or assigned) but never read.

    ``statement_expressions`` yields an ``AssignStmt``'s *target* VarRef
    too; a bare write is not a read, so those exact objects are excluded
    when collecting reads.
    """
    if method.body is None:
        return []
    declared: Dict[str, Position] = {}
    write_targets: Set[int] = set()
    for stmt in walk_statements(method.body):
        if isinstance(stmt, LocalVarDecl):
            declared.setdefault(stmt.name, stmt.position)
        elif isinstance(stmt, AssignStmt) and isinstance(stmt.target, VarRef):
            write_targets.add(id(stmt.target))
    if not declared:
        return []
    read: Set[str] = set()
    for stmt in walk_statements(method.body):
        for root in statement_expressions(stmt):
            for expr in walk_expressions(root):
                if (
                    isinstance(expr, VarRef)
                    and expr.resolved_kind == "local"
                    and id(expr) not in write_targets
                ):
                    read.add(expr.name)
    return [
        Diagnostic(
            code="JL301",
            message=f"local variable '{name}' is never read",
            source=source,
            position=position,
        )
        for name, position in declared.items()
        if name not in read
    ]


def lint_graph(graph, verdicts=None) -> List[Diagnostic]:
    """Graph-level checks: JL202 (never-witnessed downcast edges) and
    JL203 (dead typestate nodes after grafting).

    ``verdicts`` is a :class:`~repro.analysis.verdicts.CastVerdictIndex`;
    without one every downcast edge counts as unwitnessed.
    """
    diagnostics: List[Diagnostic] = []
    seen_pairs: Set[Tuple[str, str]] = set()
    for edge in graph.edges():
        if not edge.is_downcast:
            continue
        witnesses = (
            verdicts.witnesses_for(edge.source, edge.target)
            if verdicts is not None
            else 0
        )
        if witnesses:
            continue
        pair = (str(edge.source), str(edge.target))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        diagnostics.append(
            Diagnostic(
                code="JL202",
                message=(
                    f"downcast edge {pair[0]} -> {pair[1]} has no corpus witness"
                ),
                source=GRAPH_SOURCE,
            )
        )
    typestates = getattr(graph, "typestate_nodes", None)
    if typestates is not None:
        for node in typestates():
            has_in = bool(graph._in.get(node))
            has_out = bool(graph._out.get(node))
            if has_in and has_out:
                continue
            missing = "outgoing" if has_in else "incoming"
            diagnostics.append(
                Diagnostic(
                    code="JL203",
                    message=(
                        f"typestate node '{node.tag}' has no {missing} edges "
                        "after grafting"
                    ),
                    source=GRAPH_SOURCE,
                )
            )
    return diagnostics
