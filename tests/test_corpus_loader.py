"""Tests for corpus loading and registry cloning."""

import pytest

from repro.corpus import clone_registry, load_corpus_texts
from repro.minijava import MjTypeError


class TestCloneRegistry:
    def test_clone_is_independent(self, small_registry):
        clone = clone_registry(small_registry)
        assert clone.stats() == small_registry.stats()
        clone.declare("extra.Thing")
        assert "extra.Thing" in clone
        assert "extra.Thing" not in small_registry

    def test_clone_preserves_hierarchy(self, small_registry):
        clone = clone_registry(small_registry)
        assert clone.is_subtype(
            clone.lookup("demo.io.BufferedReader"), clone.lookup("demo.io.Reader")
        )


    def test_corpus_declarations_never_reach_the_api_registry(self, small_registry):
        # Corpus classes extend and implement API types and declare
        # members; the pipeline's later syncs patch them from their
        # declaration records. The API registry's declarations stay the
        # same objects with the same contents throughout.
        from repro.pipeline import CorpusPipeline

        def dump(registry):
            return [(d, repr(d)) for d in registry.all_declarations()]

        before = dump(small_registry)
        texts = [
            ("k.mj", "package c; import demo.ui.Widget; import demo.ui.ISelection;\n"
             "public class K extends Widget implements ISelection {\n"
             "  public Widget w;\n  public K() { }\n"
             "  public boolean isEmpty() { return true; }\n}\n"),
            ("r.mj", "package c; import demo.io.Reader;\n"
             "public class R extends Reader { public int read() { return 0; } }\n"),
        ]
        pipeline = CorpusPipeline.build(small_registry, texts)
        pipeline.update(upserts=[("r.mj", texts[1][1] + "// touched\n")])
        registry = pipeline.program.registry
        k = registry.lookup("c.K")
        assert registry.declaration_of(k).superclass == registry.lookup("demo.ui.Widget")
        assert [m.name for m in registry.declared_methods(k)] == ["isEmpty"]
        assert dump(small_registry) == before
        assert "c.K" not in small_registry
        for decl, _ in before:
            assert registry.declaration_of(decl.type) is decl


class TestLoadCorpus:
    def test_api_registry_untouched(self, small_registry):
        before = small_registry.stats()
        load_corpus_texts(
            small_registry,
            [("x.mj", "package c; class K { }")],
        )
        assert small_registry.stats() == before

    def test_corpus_program_contents(self, small_registry):
        program = load_corpus_texts(
            small_registry,
            [
                ("a.mj", "package c; class A { void f() { } }"),
                ("b.mj", "package c; class B { void g() { } void h() { } }"),
            ],
        )
        assert program.class_count == 2
        assert program.method_count == 3
        assert {str(t) for t in program.corpus_types} == {"c.A", "c.B"}
        assert program.check_report is not None and program.check_report.ok

    def test_type_errors_raise_by_default(self, small_registry):
        with pytest.raises(MjTypeError):
            load_corpus_texts(
                small_registry,
                [("bad.mj", "package c; class K { void f() { int x = null; } }")],
            )

    def test_check_can_be_disabled(self, small_registry):
        program = load_corpus_texts(
            small_registry,
            [("bad.mj", "package c; class K { void f() { int x = null; } }")],
            check=False,
        )
        assert program.check_report is None

    def test_corpus_can_reference_api(self, small_registry):
        program = load_corpus_texts(
            small_registry,
            [
                (
                    "x.mj",
                    """
                    package c;
                    import demo.ui.Panel;
                    import demo.ui.Viewer;
                    class K { Viewer v(Panel p) { return p.getViewer(); } }
                    """,
                )
            ],
        )
        assert program.registry is not small_registry
        assert "c.K" in program.registry


# ----------------------------------------------------------------------
# Culprit search: one successful trial per culprit, reused as the result
# ----------------------------------------------------------------------

CULPRIT_A = (
    "a.mj",
    "package c; import demo.ui.Panel;"
    " public class A { public Panel p() { return new Panel(); } }",
)
CULPRIT_B = (
    "b.mj",
    "package c; import demo.ui.Viewer;"
    " public class B { public Viewer v(A a) { return a.p().getViewer(); } }",
)
CULPRIT_C = (
    "c.mj",
    "package c; public class C extends A { public Object q() { return p(); } }",
)
#: Fails while declaring (an unknown parameter type).
BAD_DECL = ("bad.mj", "package c; public class Bad { public void use(Nowhere n) { } }")
#: Fails while resolving a body (no such method on a corpus class).
BAD_BODY = (
    "worse.mj",
    "package c; public class Worse { public void f() { A a = new A(); a.missing(); } }",
)
DUP_1 = ("d1.mj", "package c; public class D { }")
DUP_2 = ("d2.mj", "package c; public class D { }")

UNKNOWN_NOWHERE = "unknown type 'Nowhere'"

#: corpus, then the quarantine, loaded files and corpus types that the
#: lenient loader produced before the culprit trial was reused.
CULPRIT_CASES = {
    "broken-first": (
        [BAD_DECL, CULPRIT_A, CULPRIT_B, CULPRIT_C],
        [("bad.mj", "resolve", UNKNOWN_NOWHERE)],
        ["a.mj", "b.mj", "c.mj"],
        ["c.A", "c.B", "c.C"],
    ),
    "broken-middle": (
        [CULPRIT_A, CULPRIT_B, BAD_BODY, CULPRIT_C],
        [("worse.mj", "resolve", "no applicable method c.A.missing/0 for argument types ()")],
        ["a.mj", "b.mj", "c.mj"],
        ["c.A", "c.B", "c.C"],
    ),
    "broken-last": (
        [CULPRIT_A, CULPRIT_B, CULPRIT_C, BAD_DECL],
        [("bad.mj", "resolve", UNKNOWN_NOWHERE)],
        ["a.mj", "b.mj", "c.mj"],
        ["c.A", "c.B", "c.C"],
    ),
    "duplicate-class": (
        [CULPRIT_A, DUP_1, CULPRIT_B, DUP_2, CULPRIT_C],
        [("d1.mj", "resolve", "type already declared: c.D")],
        ["a.mj", "b.mj", "d2.mj", "c.mj"],
        ["c.A", "c.B", "c.D", "c.C"],
    ),
}


class TestCulpritSearch:
    @pytest.mark.parametrize("case", sorted(CULPRIT_CASES))
    def test_quarantine_and_one_successful_resolve(self, small_registry, monkeypatch, case):
        import repro.corpus.loader as loader

        texts, faults, loaded, corpus_types = CULPRIT_CASES[case]
        successes = []
        resolve = loader.resolve_program

        def counting(*args, **kwargs):
            result = resolve(*args, **kwargs)
            successes.append(result)
            return result

        monkeypatch.setattr(loader, "resolve_program", counting)
        program = load_corpus_texts(small_registry, texts, lenient=True)
        diagnostics = program.diagnostics
        assert [(f.source, f.phase, f.error) for f in diagnostics.faults] == faults
        assert diagnostics.loaded == loaded
        assert [u.source for u in program.units] == loaded
        assert [str(t) for t in program.corpus_types] == corpus_types
        assert [str(t) for t in successes[0]] == corpus_types
        # The culprit trial that resolved the survivors is the result:
        # nothing resolves them again.
        assert len(successes) == 1
        assert program.check_report is not None and program.check_report.ok

    def test_two_broken_files_quarantine_only_themselves(self, small_registry):
        # No single removal lets the rest resolve, so each round blames
        # the file the joint attempt failed in: x.mj while declaring, then
        # s.mj in a body. b.mj, c.mj and e.mj use a.mj's class and cannot
        # resolve alone, but nothing is wrong with them.
        from .resolution_oracle import VERSIONS, fresh_program, quarantine

        names = ("a.mj", "b.mj", "c.mj", "e.mj", "u.mj", "h.mj")
        base = [(name, VERSIONS[name][0]) for name in names]
        broken = [("x.mj", VERSIONS["x.mj"][0]), ("s.mj", VERSIONS["s.mj"][0])]
        program = load_corpus_texts(small_registry, base + broken, lenient=True)
        alone = {
            source: load_corpus_texts(small_registry, base + [(source, text)], lenient=True)
            for source, text in broken
        }
        assert quarantine(program) == (
            [
                ("x.mj", "resolve", alone["x.mj"].diagnostics.faults[0].error),
                ("s.mj", "resolve", alone["s.mj"].diagnostics.faults[0].error),
            ],
            [source for source, _ in base],
        )
        assert alone["x.mj"].diagnostics.faults[0].error == UNKNOWN_NOWHERE
        assert quarantine(program) == quarantine(fresh_program(small_registry, base + broken))
