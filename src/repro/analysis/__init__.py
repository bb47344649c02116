"""Static viability analysis: cast-safety verdicts and corpus lint.

The subsystem predicts, without executing anything, whether a jungloid's
downcasts can succeed at runtime — corpus-witnessed data-flow evidence
(:mod:`~repro.analysis.castsafety`) classified into the
``JUSTIFIED``/``PLAUSIBLE``/``INVIABLE`` lattice
(:mod:`~repro.analysis.verdicts`) — and audits the corpus itself with
stable structured diagnostics (:mod:`~repro.analysis.lint`).
"""

from .castsafety import (
    AbstractValue,
    CastAnalyzer,
    CastObservation,
    build_verdict_index,
    classify_pair,
    group_observations,
)
from .lint import (
    Diagnostic,
    GRAPH_SOURCE,
    LINT_CODES,
    LintReport,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_ORDER,
    SEVERITY_WARNING,
    lint_graph,
    run_lint,
)
from .verdicts import (
    CastFinding,
    CastVerdict,
    CastVerdictIndex,
    JungloidVerdict,
    cast_plausible,
    demotion_of,
    pair_key,
)

__all__ = [
    "AbstractValue",
    "CastAnalyzer",
    "CastFinding",
    "CastObservation",
    "CastVerdict",
    "CastVerdictIndex",
    "Diagnostic",
    "GRAPH_SOURCE",
    "JungloidVerdict",
    "LINT_CODES",
    "LintReport",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_ORDER",
    "SEVERITY_WARNING",
    "build_verdict_index",
    "cast_plausible",
    "classify_pair",
    "demotion_of",
    "group_observations",
    "lint_graph",
    "pair_key",
    "run_lint",
]
