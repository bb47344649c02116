"""Command-line interface: PROSPECTOR as a shell tool.

Examples::

    python -m repro query java.io.InputStream java.io.BufferedReader
    python -m repro query IFile ASTNode --statements --input-var file
    python -m repro complete Shell --visible e:KeyEvent
    python -m repro table1
    python -m repro mine
    python -m repro userstudy --seed 7
    python -m repro stats
    python -m repro dump-bundle -o graph.json
    python -m repro index build -o graph.psnap
    python -m repro index verify graph.psnap
    python -m repro index repair graph.psnap
    python -m repro query InputStream BufferedReader --snapshot graph.psnap
    python -m repro query --batch queries.txt

By default the bundled J2SE/Eclipse stubs and corpus are loaded; pass
``--api FILE`` / ``--corpus FILE`` (repeatable) to run against your own
stub and mini-Java files instead.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional, Sequence

from .analysis import SEVERITY_ORDER, lint_graph, run_lint
from .apispec import ApiSpecError, load_api_files
from .core import CursorContext, Prospector, repair_snapshot
from .corpus import CorpusLoadError, load_corpus_files, load_corpus_texts
from .data import corpus_texts, standard_corpus, standard_registry
from .eval import classify_stuck_cases, run_prototype_test, run_table1, simulate_user_study
from .graph import BundleFormatError, bundle_to_json, graph_stats
from .minijava import MiniJavaError
from .pipeline import CorpusPipeline
from .store import (
    RUNG_CURRENT,
    SnapshotError,
    SnapshotStore,
    StoreRecoveryError,
    atomic_write_text,
    verify_snapshot,
)
from .typesystem import TypeSystemError

#: Exit codes: distinct outcomes must be distinguishable by scripts.
EXIT_OK = 0
EXIT_NO_RESULTS = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGRADED = 3


def _build_prospector_from_data(args: argparse.Namespace) -> Prospector:
    """Build from stubs + corpus files (the non-snapshot path)."""
    lenient = bool(getattr(args, "lenient_corpus", False))
    if getattr(args, "api", None):
        registry = load_api_files(args.api)
        corpus = (
            load_corpus_files(registry, args.corpus, lenient=lenient)
            if getattr(args, "corpus", None)
            else None
        )
    else:
        registry = standard_registry()
        if getattr(args, "corpus", None):
            corpus = load_corpus_files(registry, args.corpus, lenient=lenient)
        elif getattr(args, "no_corpus", False):
            corpus = None
        else:
            corpus = standard_corpus(registry)
    prospector = Prospector(registry, corpus)
    _report_quarantine(prospector)
    return prospector


def _report_quarantine(prospector: Prospector) -> None:
    """Say on stderr what a lenient corpus load or update quarantined."""
    diagnostics = prospector.corpus_diagnostics
    if diagnostics is not None and not diagnostics.ok:
        print(diagnostics.summary(), file=sys.stderr)


def _build_prospector(args: argparse.Namespace) -> Prospector:
    snapshot = getattr(args, "snapshot", None)
    if not snapshot:
        return _build_prospector_from_data(args)
    return _load_snapshot(snapshot, args)


def _load_snapshot(path: str, args: argparse.Namespace) -> Prospector:
    """Load through the recovery ladder; a degraded load says so on stderr."""
    prospector = Prospector.from_snapshot(
        path, rebuild=lambda: _build_prospector_from_data(args)
    )
    diagnostics = prospector.store_diagnostics
    if diagnostics is not None and diagnostics.degraded:
        print(diagnostics.summary(), file=sys.stderr)
    return prospector


def _read_batch_file(path: str) -> List[tuple]:
    """Parse a ``--batch`` file: one ``T_IN T_OUT`` query per line.

    Blank lines and ``#`` comments are skipped.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'T_IN T_OUT', got {line!r}"
                )
            pairs.append((parts[0], parts[1]))
    return pairs


def _cmd_query_batch(args: argparse.Namespace, prospector) -> int:
    pairs = _read_batch_file(args.batch)
    if not pairs:
        print(f"no queries in {args.batch}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    outcomes = prospector.query_batch(pairs, time_budget_ms=args.time_budget_ms)
    any_results = False
    any_degraded = False
    for (t_in, t_out), outcome in zip(pairs, outcomes):
        status = ""
        if outcome.degraded:
            any_degraded = True
            status = f"  [degraded: {outcome.reason}]"
        print(f"== {t_in} -> {t_out}{status}")
        if not outcome.results:
            print("   (no jungloids found)")
            continue
        any_results = True
        for r in list(outcome.results)[: args.top]:
            print(f"#{r.rank}  {r.inline(args.input_var)}")
    if any_degraded:
        return EXIT_DEGRADED
    return EXIT_OK if any_results else EXIT_NO_RESULTS


def _cmd_query(args: argparse.Namespace) -> int:
    if args.batch is None and (args.t_in is None or args.t_out is None):
        print("error: give T_IN and T_OUT, or --batch FILE", file=sys.stderr)
        return EXIT_INPUT_ERROR
    prospector = _build_prospector(args)
    if args.batch is not None:
        return _cmd_query_batch(args, prospector)
    outcome = prospector.query_outcome(
        args.t_in, args.t_out, time_budget_ms=args.time_budget_ms
    )
    results = outcome.results
    if outcome.degraded:
        print(f"warning: degraded answer ({outcome.reason})", file=sys.stderr)
    if not results:
        print(f"no jungloids found for ({args.t_in}, {args.t_out})")
        return EXIT_NO_RESULTS
    for r in results[: args.top]:
        print(f"#{r.rank}  {r.inline(args.input_var)}")
        if args.verify:
            verdict = r.verdict or prospector.verify(r.jungloid)
            print(f"      [viability: {verdict.verdict.value}]")
            for finding in verdict.findings:
                print(
                    f"        ({finding.target}) from {finding.operand}:"
                    f" {finding.verdict.value} — {finding.evidence}"
                )
        if args.statements:
            snippet = r.code(args.input_var, args.result_var)
            for line in snippet.lines:
                print(f"      {line}")
    if outcome.degraded:
        return EXIT_DEGRADED
    return EXIT_OK


def _parse_visible(registry, pairs: Sequence[str]) -> List:
    visible = []
    for pair in pairs:
        name, _, type_name = pair.partition(":")
        if not type_name:
            raise SystemExit(f"--visible expects name:Type, got {pair!r}")
        visible.append((name, type_name))
    return visible


def _cmd_complete(args: argparse.Namespace) -> int:
    prospector = _build_prospector(args)
    context = CursorContext.at_assignment(
        prospector.registry,
        target_type=args.t_out,
        target_name=args.target_name,
        visible=_parse_visible(prospector.registry, args.visible),
    )
    outcome = prospector.complete_outcome(context, time_budget_ms=args.time_budget_ms)
    results = outcome.results
    if outcome.degraded:
        print(f"warning: degraded answer ({outcome.reason})", file=sys.stderr)
    if not results:
        print(f"no completions for {args.t_out}")
        return EXIT_NO_RESULTS
    for r in results[: args.top]:
        var = context.variable_of_type(r.jungloid.input_type)
        print(f"#{r.rank}  {r.inline(var.name if var else '')}")
    if outcome.degraded:
        return EXIT_DEGRADED
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    prospector = _build_prospector(args)
    report = run_table1(prospector)
    print(report.format_table())
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    prospector = _build_prospector(args)
    mining = prospector.mining
    if mining is None:
        print("no corpus loaded; nothing to mine")
        return 1
    print(f"extracted {mining.example_count} example jungloids:")
    for e in mining.examples:
        print(f"  {e}")
    print(f"\ngeneralized to {mining.suffix_count} unique suffixes:")
    for s in mining.suffixes:
        print(f"  {s.describe()}")
    if mining.faults:
        print(f"\nskipped {mining.fault_count} cast(s) with extraction faults:", file=sys.stderr)
        for fault in mining.faults:
            print(f"  {fault}", file=sys.stderr)
    summary = mining.trimming_summary()
    print(
        f"\nmean example length {summary['mean_example_len']:.1f}"
        f" -> mean suffix length {summary['mean_suffix_len']:.1f}"
    )
    return 0


def _cmd_userstudy(args: argparse.Namespace) -> int:
    result = simulate_user_study(seed=args.seed)
    print(result.format_report())
    return 0


def _cmd_informal(args: argparse.Namespace) -> int:
    print(classify_stuck_cases().format_report())
    print()
    print(run_prototype_test(_build_prospector(args)).format_report())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    prospector = _build_prospector(args)
    print("registry:")
    for key, value in prospector.registry.stats().items():
        print(f"  {key:>14}: {value}")
    print("graph:")
    print(graph_stats(prospector.graph))
    if prospector.mining is not None:
        print("mining:")
        print(f"  {'examples':>14}: {prospector.mining.example_count}")
        print(f"  {'suffixes':>14}: {prospector.mining.suffix_count}")
    return 0


def _cmd_dump_bundle(args: argparse.Namespace) -> int:
    if args.output and args.path != "-":
        print("error: give either a positional path or -o/--output, not both", file=sys.stderr)
        return EXIT_INPUT_ERROR
    path = args.output or args.path
    prospector = _build_prospector(args)
    text = bundle_to_json(
        prospector.registry,
        prospector.mined_jungloids,
        indent=2 if args.pretty else None,
    )
    if path == "-":
        print(text)
    else:
        atomic_write_text(path, text)
        print(f"wrote {len(text)} bytes to {path}")
    return EXIT_OK


def _cmd_index_build(args: argparse.Namespace) -> int:
    prospector = _build_prospector_from_data(args)
    manifest = prospector.save_snapshot(args.output)
    print(
        f"wrote snapshot {args.output}: {manifest.payload_bytes} payload bytes,"
        f" {manifest.type_count} types, {manifest.mined_count} mined,"
        f" {manifest.node_count} nodes, {manifest.edge_count} edges"
    )
    return EXIT_OK


def _cmd_index_verify(args: argparse.Namespace) -> int:
    store = SnapshotStore(args.path)
    diagnostics = verify_snapshot(store)
    print(diagnostics.summary(), file=sys.stderr if diagnostics.faults else sys.stdout)
    if store.exists("previous"):
        prev = verify_snapshot(store, which="previous")
        status = "sound" if not prev.faults else "damaged"
        print(f"previous generation ({store.previous_path}): {status}")
    return EXIT_OK if not diagnostics.faults else EXIT_INPUT_ERROR


def _cmd_index_repair(args: argparse.Namespace) -> int:
    try:
        prospector = repair_snapshot(
            args.path, rebuild=lambda: _build_prospector_from_data(args)
        )
    except StoreRecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    diagnostics = prospector.store_diagnostics
    if diagnostics.ok:
        print(f"{args.path}: already sound, nothing to repair")
    else:
        print(diagnostics.summary(), file=sys.stderr)
        if diagnostics.rung_used != RUNG_CURRENT:
            print(f"{args.path}: rewritten from {diagnostics.rung_used}")
        elif prospector.verdicts is not None:
            print(
                f"{args.path}: rewritten with its analysis section restored"
                " from the stage file"
            )
        else:
            print(f"{args.path}: rewritten without its analysis section")
    return EXIT_OK


def _parse_set_specs(specs: Sequence[str]) -> List[tuple]:
    """Parse ``--set`` operands: ``NAME=PATH`` or bare ``PATH``.

    With a bare path the corpus source name is the path string itself —
    the same naming ``--corpus FILE`` loading uses.
    """
    upserts = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = spec, spec
        with open(path, "r", encoding="utf-8") as handle:
            upserts.append((name, handle.read()))
    return upserts


def _cmd_index_update(args: argparse.Namespace) -> int:
    if not args.set and not args.remove:
        print("error: nothing to do; give --set and/or --remove", file=sys.stderr)
        return EXIT_INPUT_ERROR
    upserts = _parse_set_specs(args.set)
    prospector = _load_snapshot(args.path, args)
    if prospector.pipeline is None:
        # No usable stage file (missing, damaged, or another generation's):
        # degrade to a full rebuild from the corpus, which recreates the
        # pipeline — the update below then runs against it and the save writes
        # a fresh stage file, so the *next* update is incremental again.
        print(
            f"note: no usable stage file for {args.path};"
            " rebuilding from corpus (next update will be incremental)",
            file=sys.stderr,
        )
        prospector = _build_prospector_from_data(args)
    if prospector.pipeline is None:
        print(
            "error: no corpus available to update (ran with --no-corpus?)",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    stats = prospector.update_corpus(upserts, args.remove)
    _report_quarantine(prospector)
    t = stats.timings
    if stats.noop:
        print(f"{args.path}: no content changes (all fingerprints match)")
    else:
        print(
            f"{args.path}: +{len(stats.files_added)} added,"
            f" ~{len(stats.files_changed)} changed,"
            f" -{len(stats.files_removed)} removed"
            f" (of {stats.files_total} corpus files)"
        )
        print(
            f"  re-resolved {len(stats.files_reresolved)} file(s),"
            f" re-checked {len(stats.files_rechecked)} file(s),"
            f" re-mined {len(stats.files_remined)} file(s), reused"
            f" {stats.files_reused}; suffixes +{stats.suffixes_added}"
            f"/-{stats.suffixes_removed}; {stats.affected_targets}"
            f" graph node(s) with changed edges"
        )
    stages = ", ".join(
        f"{f.name[: -len('_ms')]} {getattr(t, f.name):.2f} ms" for f in fields(t)
    )
    print(f"  stages: {stages} (total {t.total_ms:.2f} ms)")
    manifest = prospector.save_snapshot(args.path)
    print(
        f"  wrote snapshot: {manifest.mined_count} mined,"
        f" {manifest.node_count} nodes, {manifest.edge_count} edges"
    )
    return EXIT_OK


def _lint_texts(args: argparse.Namespace) -> List[tuple]:
    """The ``(source, text)`` pairs ``lint`` should examine.

    Corpus files are read raw — not through the corpus loader — because
    lint wants to report parse/resolve problems as diagnostics, not have
    the loader abort or quarantine them first.
    """
    if getattr(args, "corpus", None):
        texts = []
        for path in args.corpus:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append((path, handle.read()))
        return texts
    if getattr(args, "no_corpus", False):
        return []
    return list(corpus_texts())


def _cmd_lint(args: argparse.Namespace) -> int:
    registry = (
        load_api_files(args.api) if getattr(args, "api", None) else standard_registry()
    )
    texts = _lint_texts(args)
    if not texts:
        print("error: no corpus to lint (--no-corpus?)", file=sys.stderr)
        return EXIT_INPUT_ERROR
    program = load_corpus_texts(registry, texts, check=False, lenient=True)
    report = run_lint(registry, texts, program=program)
    if args.graph:
        # The graph's load checks (and quarantines) where lint does not,
        # but reuses the lint load's parses and body resolutions. It
        # declares the units again, so it runs after the lint passes.
        pipeline = CorpusPipeline.from_program(registry, program, check=True)
        prospector = Prospector(registry, pipeline=pipeline)
        for diagnostic in lint_graph(prospector.graph, prospector.verdicts):
            report.record(diagnostic)
    for diagnostic in report.diagnostics:
        print(diagnostic)
    counts = report.to_dict()["counts"]
    summary = ", ".join(f"{key} x{n}" for key, n in sorted(counts.items()) if n)
    print(
        f"linted {len(report.linted_sources)} source(s):"
        f" {len(report.diagnostics)} finding(s)"
        + (f" ({summary})" if summary else "")
    )
    return EXIT_NO_RESULTS if report.failed(args.fail_on) else EXIT_OK


def _cmd_bench_analysis(args: argparse.Namespace) -> int:
    from .eval import run_analysis_eval, write_bench_analysis

    prospector = _build_prospector_from_data(args)
    if prospector.mining is None:
        print("error: bench-analysis needs a corpus", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = run_analysis_eval(prospector)
    print(report.format_report())
    if args.output:
        write_bench_analysis(report, args.output)
        print(f"wrote {args.output}")
    if not report.soundness_ok:
        print(
            "error: soundness violated — a JUSTIFIED jungloid threw"
            " ClassCastException",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    if args.min_agreement is not None:
        worst = min(
            report.top_ranked.agreement_rate, report.mined_examples.agreement_rate
        )
        if worst < args.min_agreement:
            print(
                f"error: agreement rate {worst:.3f} below required"
                f" {args.min_agreement:.3f}",
                file=sys.stderr,
            )
            return EXIT_NO_RESULTS
    return EXIT_OK


def _add_data_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--api", action="append", metavar="FILE", help="load this .api stub file (repeatable; replaces the bundled stubs)")
    parser.add_argument("--corpus", action="append", metavar="FILE", help="load this .mj corpus file (repeatable)")
    parser.add_argument("--no-corpus", action="store_true", help="signatures only: skip corpus mining")
    parser.add_argument(
        "--lenient-corpus",
        action="store_true",
        help="quarantine malformed corpus files and mine the rest instead of aborting",
    )


def _add_snapshot_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--snapshot",
        metavar="FILE",
        default=None,
        help="fast-start from this snapshot; on damage recover via"
        " previous generation or corpus rebuild",
    )


def _add_budget_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--time-budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget; on expiry degrade gracefully (exit code 3) instead of hanging",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PROSPECTOR jungloid synthesis (PLDI 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="answer a jungloid query (t_in, t_out)")
    q.add_argument("t_in", nargs="?", default=None, help="input type (qualified or unique simple name)")
    q.add_argument("t_out", nargs="?", default=None, help="output type")
    q.add_argument(
        "--batch",
        metavar="FILE",
        default=None,
        help="answer every 'T_IN T_OUT' line of FILE in one batched call"
        " (shares per-target search work across the batch)",
    )
    q.add_argument("--top", type=int, default=5, help="results to show (default 5)")
    q.add_argument("--input-var", default="x", help="name of the input variable")
    q.add_argument("--result-var", default="result", help="name for the result variable")
    q.add_argument("--statements", action="store_true", help="also print insertable statements")
    q.add_argument(
        "--verify",
        action="store_true",
        help="print each result's static viability verdict and per-cast findings",
    )
    _add_data_options(q)
    _add_budget_option(q)
    _add_snapshot_option(q)
    q.set_defaults(func=_cmd_query)

    c = sub.add_parser("complete", help="content-assist: infer queries from context")
    c.add_argument("t_out", help="declared type of the assigned variable")
    c.add_argument("--visible", nargs="*", default=[], metavar="NAME:TYPE", help="visible variables")
    c.add_argument("--target-name", default="result")
    c.add_argument("--top", type=int, default=5)
    _add_data_options(c)
    _add_budget_option(c)
    _add_snapshot_option(c)
    c.set_defaults(func=_cmd_complete)

    t = sub.add_parser("table1", help="run the Table-1 query-processing experiment")
    _add_data_options(t)
    t.set_defaults(func=_cmd_table1)

    m = sub.add_parser("mine", help="show mined example jungloids and suffixes")
    _add_data_options(m)
    m.set_defaults(func=_cmd_mine)

    u = sub.add_parser("userstudy", help="run the simulated user study (Figure 8)")
    u.add_argument("--seed", type=int, default=20050612)
    u.set_defaults(func=_cmd_userstudy)

    i = sub.add_parser("informal", help="run the informal studies (stuck cases, prototype)")
    _add_data_options(i)
    i.set_defaults(func=_cmd_informal)

    s = sub.add_parser("stats", help="registry / graph / mining statistics")
    _add_data_options(s)
    s.set_defaults(func=_cmd_stats)

    d = sub.add_parser(
        "dump-bundle",
        help="serialize the raw graph bundle to JSON"
        " (see `index build` for checksummed snapshots)",
    )
    d.add_argument("path", nargs="?", default="-", help="output path, or - for stdout")
    d.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="write atomically to FILE instead of stdout",
    )
    d.add_argument("--pretty", action="store_true")
    _add_data_options(d)
    d.set_defaults(func=_cmd_dump_bundle)

    ln = sub.add_parser(
        "lint",
        help="run the corpus lint engine (stable JLxxx diagnostic codes);"
        " exit 1 when findings reach --fail-on",
    )
    ln.add_argument(
        "--fail-on",
        choices=sorted(SEVERITY_ORDER, key=SEVERITY_ORDER.get),
        default="info",
        help="lowest severity that makes the exit code nonzero (default info)",
    )
    ln.add_argument(
        "--graph",
        action="store_true",
        help="also lint the mined jungloid graph (never-witnessed downcasts,"
        " dead typestate nodes)",
    )
    _add_data_options(ln)
    ln.set_defaults(func=_cmd_lint)

    ba = sub.add_parser(
        "bench-analysis",
        help="score static viability verdicts against the mock runtime"
        " (agreement rate, confusion counts, verdicts/sec, soundness)",
    )
    ba.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="also write the numbers as JSON (e.g. benchmarks/out/BENCH_analysis.json)",
    )
    ba.add_argument(
        "--min-agreement",
        type=float,
        default=None,
        metavar="RATE",
        help="exit nonzero when either population's agreement rate falls"
        " below RATE (CI regression guard)",
    )
    _add_data_options(ba)
    ba.set_defaults(func=_cmd_bench_analysis)

    ix = sub.add_parser("index", help="manage durable graph snapshots")
    ix_sub = ix.add_subparsers(dest="index_command", required=True)

    ib = ix_sub.add_parser(
        "build", help="mine, build, and atomically persist a checksummed snapshot"
    )
    ib.add_argument("-o", "--output", metavar="FILE", required=True)
    _add_data_options(ib)
    ib.set_defaults(func=_cmd_index_build)

    iu = ix_sub.add_parser(
        "update",
        help="apply corpus file edits to an existing snapshot incrementally"
        " (the stage file holds the corpus texts)",
    )
    iu.add_argument("path", help="snapshot file to update in place")
    iu.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="[NAME=]FILE",
        help="add or replace a corpus file (repeatable); NAME defaults"
        " to the path itself",
    )
    iu.add_argument(
        "--remove",
        action="append",
        default=[],
        metavar="NAME",
        help="drop this corpus source (repeatable)",
    )
    _add_data_options(iu)
    iu.set_defaults(func=_cmd_index_update)

    iv = ix_sub.add_parser(
        "verify", help="check a snapshot's checksum, schema, and integrity"
    )
    iv.add_argument("path", help="snapshot file to verify")
    iv.set_defaults(func=_cmd_index_verify)

    ir = ix_sub.add_parser(
        "repair",
        help="restore a damaged snapshot from its previous generation"
        " or by rebuilding from the corpus",
    )
    ir.add_argument("path", help="snapshot file to repair")
    _add_data_options(ir)
    ir.set_defaults(func=_cmd_index_repair)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ApiSpecError, MiniJavaError, CorpusLoadError, TypeSystemError) as exc:
        # Loader / parser problems are input errors, not crashes: report
        # cleanly and use the dedicated exit code.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BundleFormatError as exc:
        # Malformed bundle: one line naming the offending key/offset.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SnapshotError, StoreRecoveryError) as exc:
        first_line = str(exc).splitlines()[0] if str(exc) else "snapshot failure"
        print(f"error: {first_line}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (KeyError, ValueError) as exc:
        # e.g. unknown/ambiguous type names from resolve_type_spec.
        detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
