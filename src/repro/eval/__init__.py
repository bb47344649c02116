"""Evaluation harness: the paper's experiments, mechanized."""

from .analysis import (
    AgreementReport,
    AnalysisEvalReport,
    run_analysis_eval,
    write_bench_analysis,
)
from .informal import (
    JUNGLOID,
    MULTIPLE,
    OTHER,
    PROTOTYPE_PROBLEM_IDS,
    PrototypeReport,
    STUCK_CASES,
    StuckCase,
    StuckCaseReport,
    classify_method,
    classify_stuck_cases,
    run_prototype_test,
)
from .oracle import SolutionOracle, chain_signature, step_signature
from .perf import (
    PerfReport,
    measure_build_memory,
    measure_bundle,
    measure_load,
    measure_queries,
    percentile,
    run_perf,
)
from .problems import TABLE1_PROBLEMS, Table1Problem, problem_by_id
from .queryproc import (
    DEFAULT_READ_LIMIT,
    QueryProcessingReport,
    QueryProcessingRow,
    run_problem,
    run_table1,
)
from .userstudy import (
    Attempt,
    DEFAULT_USERS,
    STUDY_PROBLEMS,
    StudyProblem,
    UserStudyResult,
    simulate_user_study,
)
from .figures import render_figure8
from .sweep import SweepQuery, SweepReport, run_query_sweep
from .viability import (
    ViabilityReport,
    measure_downcast_ablation,
    measure_mined_examples,
    measure_top_results,
)

__all__ = [
    "AgreementReport",
    "AnalysisEvalReport",
    "Attempt",
    "DEFAULT_READ_LIMIT",
    "DEFAULT_USERS",
    "JUNGLOID",
    "MULTIPLE",
    "OTHER",
    "PROTOTYPE_PROBLEM_IDS",
    "PerfReport",
    "PrototypeReport",
    "QueryProcessingReport",
    "QueryProcessingRow",
    "STUCK_CASES",
    "STUDY_PROBLEMS",
    "SolutionOracle",
    "StuckCase",
    "StuckCaseReport",
    "StudyProblem",
    "SweepQuery",
    "SweepReport",
    "TABLE1_PROBLEMS",
    "Table1Problem",
    "UserStudyResult",
    "ViabilityReport",
    "chain_signature",
    "classify_method",
    "classify_stuck_cases",
    "measure_build_memory",
    "measure_bundle",
    "measure_downcast_ablation",
    "measure_load",
    "measure_mined_examples",
    "measure_queries",
    "measure_top_results",
    "percentile",
    "problem_by_id",
    "render_figure8",
    "run_analysis_eval",
    "run_perf",
    "run_problem",
    "run_prototype_test",
    "run_query_sweep",
    "run_table1",
    "simulate_user_study",
    "step_signature",
    "write_bench_analysis",
]
