"""Differential oracle for incremental corpus resolution.

The incremental pipeline re-resolves only the units whose recorded
lookups changed, and re-declares only the units whose declaration
probes changed. Its contract is that after any sync the program looks
exactly like a fresh lenient load of the same texts that resolves every
unit from scratch (:func:`fresh_program`, which uses no
``ResolutionCache``): the same annotations on every unit, members
included, the same corpus type declarations, the same quarantine, and
the same ranked answers with verdicts. Its later stages
must equal a fresh pipeline build's too: the call graph, the
generalized examples and the suffixes, in order. This module renders
each of those as plain values, and holds a small edit corpus over
``SMALL_API`` whose files call each other's classes, extend a class
from another file, shadow simple names, overload a called method, and
break.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Iterator, List, Sequence, Tuple

from repro import Prospector
from repro.analysis.castsafety import classify_pair
from repro.corpus import CorpusProgram, resolve_and_check_lenient
from repro.minijava.resolver import Resolver, _Declared
from repro.pipeline import CorpusPipeline
from repro.pipeline import pipeline as pipeline_module
from repro.minijava import MiniJavaError, parse_minijava
from repro.robustness import PHASE_PARSE, CorpusDiagnostics
from repro.minijava.ast import statement_expressions, walk_expressions, walk_statements

from .conftest import SMALL_CORPUS

_ANNOTATIONS = (
    "resolved_type",
    "resolved_method",
    "resolved_field",
    "resolved_constructor",
    "resolved_kind",
    "operand_type",
)


def annotation_dump(units) -> List[tuple]:
    """Every annotation the resolver wrote, unit by unit, in AST order."""
    rows: List[tuple] = []
    for unit in units:
        for cls in unit.classes:
            for f in cls.fields:
                rows.append((unit.source, f.name, repr(f.resolved_type)))
            roots = [f.init for f in cls.fields if f.init is not None]
            for m in cls.methods:
                rows.append(
                    (unit.source, m.name, repr(m.owner_type), repr(m.resolved_method),
                     repr(m.resolved_constructor))
                    + tuple(repr(p.resolved_type) for p in m.params)
                )
                for stmt in walk_statements(m.body) if m.body is not None else ():
                    rows.append(
                        (unit.source, type(stmt).__name__,
                         repr(getattr(stmt, "resolved_type", None)))
                    )
                    roots.extend(statement_expressions(stmt))
            for root in roots:
                for expr in walk_expressions(root):
                    rows.append(
                        (unit.source, type(expr).__name__)
                        + tuple(repr(getattr(expr, a, None)) for a in _ANNOTATIONS)
                    )
    return rows


def declaration_dump(program) -> List[tuple]:
    """Each corpus type's declaration in the program's registry: its
    supertypes, then its fields, methods and constructors, in order."""
    rows: List[tuple] = []
    for t in program.corpus_types:
        decl = program.registry.declaration_of(t)
        rows.append(
            (repr(t), decl.kind, repr(decl.superclass), repr(decl.interfaces),
             repr(decl.fields), repr(decl.methods), repr(decl.constructors))
        )
    return rows


def quarantine(program) -> Tuple[list, list]:
    """The quarantine report as ``([(source, phase, error)], loaded)``."""
    diagnostics = program.diagnostics
    faults = [(f.source, f.phase, f.error) for f in diagnostics.faults]
    return faults, list(diagnostics.loaded)


QUERIES = (
    ("demo.ui.ISelection", "demo.ui.Item"),
    ("demo.ui.Panel", "demo.ui.Item"),
    ("demo.ui.Panel", "demo.ui.Widget"),
    ("demo.ui.Viewer", "java.lang.Object"),
)


def ranked_answers(prospector, queries=QUERIES) -> List[list]:
    """Rendered answers with their verdicts, per query."""
    return [
        [
            (s.jungloid.render_expression("x"), str(s.verdict))
            for s in prospector.query(t_in, t_out)
        ]
        for t_in, t_out in queries
    ]


def fresh_program(registry, texts: Sequence[Tuple[str, str]]) -> CorpusProgram:
    """A lenient load of ``texts`` that resolves every body from scratch."""
    diagnostics = CorpusDiagnostics()
    units = []
    for source, text in texts:
        try:
            units.append(parse_minijava(text, source))
        except MiniJavaError as exc:
            diagnostics.record(source, PHASE_PARSE, exc)
    resolved, units, corpus_types, report = resolve_and_check_lenient(
        registry, units, diagnostics
    )
    diagnostics.loaded = [u.source for u in units]
    return CorpusProgram(
        units=units,
        registry=resolved,
        corpus_types=corpus_types,
        check_report=report,
        diagnostics=diagnostics,
        texts=list(texts),
    )


def call_graph_values(pipeline) -> Tuple[dict, dict, dict, dict]:
    """The pipeline's call graph as ``(methods, callers_of, calls_in,
    expressions)`` mappings, with declarations named by source and
    position and targets by repr. Nothing reads an order over a map's
    keys; each site list and expression walk is kept in its order."""
    where = {}
    for unit in pipeline.program.units:
        for cls in unit.classes:
            for decl in cls.methods:
                where[id(decl)] = (unit.source, cls.name, decl.name, str(decl.position))

    def site(s):
        return (where[id(s.caller)], s.call.name, str(s.call.position),
                tuple(repr(t) for t in s.targets))

    graph = pipeline.call_graph
    return (
        {repr(m): where[id(decl)] for m, decl in graph.methods.items()},
        {repr(m): [site(s) for s in sites] for m, sites in graph.callers_of.items()},
        {where[key]: [site(s) for s in sites] for key, sites in graph.calls_in.items()},
        {
            where[key]: [(type(e).__name__, str(e.position)) for e in exprs]
            for key, exprs in graph.expressions.items()
        },
    )


def mining_values(pipeline) -> Tuple[list, list, int, Counter]:
    """``(generalized, suffixes)`` as plain values, in order, then the
    number of examples in the trie and the paths grafted into the graph."""
    mining = pipeline.mining
    return (
        [
            (str(g.example), g.suffix.describe())
            for g in mining.generalized
        ],
        [j.describe() for j in mining.suffixes],
        pipeline._generalize.generalizer.live_examples,
        Counter(repr(steps) for steps in pipeline.graph.mined_suffix_keys()),
    )


def record_values(pipeline) -> List[tuple]:
    """Every mine record, in corpus order: its examples, faults, and
    decl, site and type dependencies."""
    rows: List[tuple] = []
    for unit in pipeline.program.units:
        record = pipeline.records[unit.source]
        rows.append(
            (
                record.source,
                record.fingerprint,
                [str(e) for e in record.examples],
                [(f.source, f.method, f.position, f.error) for f in record.faults],
                sorted(record.decl_deps.items(), key=repr),
                sorted(record.site_deps.items(), key=repr),
                sorted(record.type_deps.items(), key=repr),
            )
        )
    return rows


def verdict_values(pipeline) -> List[tuple]:
    """The verdict index's findings, in its order."""
    return [
        (pair, f.verdict, f.witnesses, f.evidence, f.definite_types)
        for pair, f in pipeline.verdicts._findings.items()
    ]


def assert_matches_fresh(registry, pipeline, texts: Sequence[Tuple[str, str]]) -> None:
    """The pipeline's program and answers equal a fresh lenient load's,
    and its call graph, mine records, verdicts and generalization a
    fresh pipeline build's. A strict pipeline has no quarantine report,
    and its texts must load without one."""
    fresh = fresh_program(registry, texts)
    live = pipeline.program
    assert [u.source for u in live.units] == [u.source for u in fresh.units]
    if pipeline.lenient:
        assert quarantine(live) == quarantine(fresh)
    else:
        assert live.diagnostics is None and fresh.diagnostics.ok
    assert annotation_dump(live.units) == annotation_dump(fresh.units)
    assert declaration_dump(live) == declaration_dump(fresh)
    built = CorpusPipeline.build(registry, texts, lenient=pipeline.lenient)
    assert call_graph_values(pipeline) == call_graph_values(built)
    assert record_values(pipeline) == record_values(built)
    assert verdict_values(pipeline) == verdict_values(built)
    assert mining_values(pipeline) == mining_values(built)
    # The trie holds the very examples whose results the pipeline serves.
    held = {id(g.example) for g, _, _ in pipeline._generalize.generalizer._results.values()}
    assert held == {id(g.example) for g in pipeline.mining.generalized}
    assert ranked_answers(Prospector(registry, pipeline=pipeline)) == ranked_answers(
        Prospector(registry, fresh)
    )


@contextlib.contextmanager
def checked_narrowing() -> Iterator[Counter]:
    """Check every skip the dependency indexes make: a declaration record
    or body entry the resolver reuses unchecked must pass
    ``_binds_same`` / ``_still_valid``, a mine record the pipeline reuses
    unchecked must pass ``record_valid``, and every verdict must be
    what ``classify_pair`` makes of its group. Yields the number of
    skips of each kind."""
    skips: Counter = Counter()
    maps = {}
    unaffected = Resolver._unaffected
    mine_stage, call_graph_stage = pipeline_module._MineStage, pipeline_module._CallGraphStage
    record_unaffected = mine_stage.record_unaffected
    dep_maps = call_graph_stage.run
    build_index = pipeline_module.build_verdict_index

    def resolver_skip(self, record, suspects):
        skipped = unaffected(self, record, suspects)
        if skipped:
            if isinstance(record, _Declared):
                skips["declared"] += 1
                assert self._binds_same(record.trace), record.unit.source
            else:
                skips["entry"] += 1
                assert self._still_valid(record), record.unit.source
        return skipped

    def capture(self, program, fps, resolved):
        maps["deps"] = self
        return dep_maps(self, program, fps, resolved)

    def record_skip(record, fp, suspects):
        skipped = record_unaffected(record, fp, suspects)
        if skipped:
            skips["record"] += 1
            assert mine_stage.record_valid(record, fp, maps["deps"]), record.source
        return skipped

    def checked_index(registry, observations, previous=None):
        index = build_index(registry, observations, previous)
        for pair, group in index.groups.items():
            assert index._findings[pair] == classify_pair(group), pair
        return index

    patches = (
        (Resolver, "_unaffected", resolver_skip),
        (call_graph_stage, "run", capture),
        (mine_stage, "record_unaffected", staticmethod(record_skip)),
        (pipeline_module, "build_verdict_index", checked_index),
    )
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield skips
    finally:
        Resolver._unaffected = unaffected
        call_graph_stage.run = dep_maps
        mine_stage.record_unaffected = staticmethod(record_unaffected)
        pipeline_module.build_verdict_index = build_index


# ----------------------------------------------------------------------
# The edit corpus: each file name has a few versions
# ----------------------------------------------------------------------

_A = """
package c;
import demo.ui.Item;
import demo.ui.Panel;
import demo.ui.Widget;
public class A {
  public Panel p() { return new Panel(); }
  public Widget take(Widget w) { return w; }
  public Object own(A other) { return other; }
%s}
"""

_E = """
package e;
public class E {
  public Object first(Object o) {
    A a = (A) o;
    return a.p();
  }
}
"""

#: File name -> its versions. ``a.mj`` declares ``c.A``; ``b.mj`` calls
#: it (picking between ``take`` overloads, and passing a ``C`` where an
#: ``A`` is expected); ``c.mj`` extends it, stops extending it, or
#: overrides ``p()``, which e.mj calls without reading ``C``;
#: ``e.mj``'s body names it by simple name from another package;
#: ``d.mj`` declares a second ``A`` that makes that name ambiguous;
#: ``u.mj``'s body names ``Widget`` and ``String`` by simple name, which
#: ``w.mj`` shadows in package ``c``; ``x.mj`` breaks in declaration or
#: in a body, or is fixed; ``s.mj`` calls an instance method through a
#: type name (an error), or a static one.
VERSIONS = {
    "a.mj": (
        _A % "",
        _A % "  public Item take(Item i) { return i; }\n",
        _A % "  public Object extra() { return missing(); }\n",
    ),
    "b.mj": (
        """
package c;
import demo.ui.Item;
import demo.ui.Panel;
import demo.ui.Viewer;
public class B {
  public Viewer v(A a) { return a.p().getViewer(); }
  public Item t(A a, Panel panel) {
    Item i = new Item(panel);
    Item got = (Item) a.take(i);
    return got;
  }
  public Object mine(A a, C c) { return a.own(c); }
}
""",
    ),
    "c.mj": (
        """
package c;
public class C extends A {
  public Object q() { return p(); }
}
""",
        """
package c;
import demo.ui.Viewer;
public class C extends A {
  public Viewer q() { return p().getViewer(); }
}
""",
        """
package c;
public class C {
  public Object q() { return null; }
}
""",
        """
package c;
import demo.ui.Panel;
public class C extends A {
  public Panel p() { return null; }
}
""",
    ),
    "e.mj": (_E,),
    "d.mj": (
        """
package d;
public class A {
  public Object p() { return null; }
}
""",
    ),
    "u.mj": (
        """
package c;
public class User {
  public Object name() {
    Widget w = new Widget();
    String s = w.getName();
    return s;
  }
}
""",
    ),
    "w.mj": (
        """
package c;
public class Widget {
  public String getName() { return "shadow"; }
}
""",
        """
package c;
public class Widget {
}
""",
        """
package c;
public class String {
}
""",
    ),
    "x.mj": (
        """
package x;
public class Bad {
  public void use(Nowhere gone) { }
}
""",
        """
package x;
public class Bad {
  public void use() { Object o = nothing; }
}
""",
        """
package x;
public class Bad {
  public int use() { return 1; }
}
""",
    ),
    "s.mj": (
        """
package s;
import demo.ui.Panel;
public class S {
  public Object f() { return Panel.getViewer(); }
}
""",
        """
package s;
import demo.ui.Panel;
public class S {
  public Object f() { return Panel.getDefault(); }
}
""",
    ),
    "h.mj": (SMALL_CORPUS,),
}
