"""Tests for the mini-Java parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apispec import SyntheticApiConfig, generate_synthetic_api
from repro.data import corpus_texts
from repro.minijava import (
    AssignStmt,
    BinaryExpr,
    Block,
    CallExpr,
    CastExpr,
    ExprStmt,
    FieldAccessExpr,
    IfStmt,
    LocalVarDecl,
    MiniJavaError,
    MjParseError,
    MjTokenKind,
    NewExpr,
    ReturnStmt,
    StringLit,
    ThisExpr,
    VarRef,
    WhileStmt,
    parse_minijava,
    tokenize,
)

from .parser_oracle import oracle_parse_minijava
from .test_update_work import _corpusgen


def parse_method_body(body, params="") -> Block:
    unit = parse_minijava(
        f"package p; public class C {{ public void m({params}) {{ {body} }} }}"
    )
    return unit.classes[0].methods[0].body


def parse_expr(expr_text, params=""):
    body = parse_method_body(f"{expr_text};", params)
    stmt = body.statements[0]
    assert isinstance(stmt, ExprStmt)
    return stmt.expr


class TestUnitStructure:
    def test_package_imports_classes(self):
        unit = parse_minijava(
            "package a.b; import x.Y; import x.Z; public class C {} class D {}"
        )
        assert unit.package == "a.b"
        assert unit.imports == ["x.Y", "x.Z"]
        assert [c.qualified_name for c in unit.classes] == ["a.b.C", "a.b.D"]

    def test_class_heritage(self):
        unit = parse_minijava("package p; class C extends D implements I, J {}")
        cls = unit.classes[0]
        assert cls.extends.name == "D"
        assert [i.name for i in cls.implements] == ["I", "J"]

    def test_interface(self):
        unit = parse_minijava("package p; interface I extends J { void run(); }")
        cls = unit.classes[0]
        assert cls.is_interface
        assert cls.methods[0].body is None

    def test_fields_and_methods(self):
        unit = parse_minijava(
            "package p; class C { int count; static String NAME; String f(int x) { return null; } }"
        )
        cls = unit.classes[0]
        assert [f.name for f in cls.fields] == ["count", "NAME"]
        assert cls.fields[1].static
        assert cls.methods[0].params[0].name == "x"

    def test_constructor(self):
        unit = parse_minijava("package p; class C { C(int x) { } }")
        m = unit.classes[0].methods[0]
        assert m.is_constructor


class TestStatements:
    def test_local_decl_with_init(self):
        body = parse_method_body("demo.Foo x = null;")
        stmt = body.statements[0]
        assert isinstance(stmt, LocalVarDecl)
        assert stmt.type_ref.name == "demo.Foo"

    def test_local_decl_array_type(self):
        stmt = parse_method_body("Foo[] xs = null;").statements[0]
        assert stmt.type_ref.dims == 1

    def test_assignment_vs_expression(self):
        body = parse_method_body("x = y; f();", params="int x, int y")
        assert isinstance(body.statements[0], AssignStmt)
        assert isinstance(body.statements[1], ExprStmt)

    def test_field_assignment_target(self):
        stmt = parse_method_body("this.f = 1;").statements[0]
        assert isinstance(stmt, AssignStmt)
        assert isinstance(stmt.target, FieldAccessExpr)

    def test_invalid_assignment_target(self):
        with pytest.raises(MjParseError):
            parse_method_body("f() = 1;")

    def test_invalid_assignment_target_is_reported_at_the_target(self):
        source = "class A {\n  void m() {\n    f() = x;\n    int y = 1;\n  }\n}"
        with pytest.raises(MjParseError) as exc:
            parse_minijava(source)
        assert (exc.value.line, exc.value.column) == (3, 5)
        assert "invalid assignment target (found 'f')" in str(exc.value)

    def test_if_else_and_while(self):
        body = parse_method_body(
            "if (a) { f(); } else g(); while (b) { h(); }", params="boolean a, boolean b"
        )
        assert isinstance(body.statements[0], IfStmt)
        assert body.statements[0].else_branch is not None
        assert isinstance(body.statements[1], WhileStmt)

    def test_return_forms(self):
        body = parse_method_body("return;")
        assert isinstance(body.statements[0], ReturnStmt)
        assert body.statements[0].value is None
        body = parse_method_body("return x;", params="int x")
        assert body.statements[0].value is not None


class TestExpressions:
    def test_call_chain(self):
        expr = parse_expr("a.b().c()", params="Foo a")
        assert isinstance(expr, CallExpr)
        assert expr.name == "c"
        assert isinstance(expr.receiver, CallExpr)

    def test_field_access_chain(self):
        expr = parse_expr("a.b.c", params="Foo a")
        assert isinstance(expr, FieldAccessExpr)
        assert expr.name == "c"

    def test_new_with_args(self):
        expr = parse_expr('new p.Foo(x, "s")', params="int x")
        assert isinstance(expr, NewExpr)
        assert expr.type_ref.name == "p.Foo"
        assert isinstance(expr.args[1], StringLit)

    def test_cast_expression(self):
        expr = parse_expr("(p.Foo) x", params="Object x")
        assert isinstance(expr, CastExpr)
        assert expr.type_ref.name == "p.Foo"

    def test_cast_then_member_access(self):
        expr = parse_expr("((Foo) x).bar()", params="Object x")
        assert isinstance(expr, CallExpr)
        assert isinstance(expr.receiver, CastExpr)

    def test_parenthesized_expression_is_not_cast(self):
        expr = parse_expr("(x)", params="int x")
        assert isinstance(expr, VarRef)

    def test_unqualified_call_has_no_receiver(self):
        expr = parse_expr("helper(x)", params="int x")
        assert isinstance(expr, CallExpr)
        assert expr.receiver is None

    def test_this(self):
        expr = parse_expr("this.run()")
        assert isinstance(expr.receiver, ThisExpr)

    def test_binary_precedence(self):
        expr = parse_expr("a + b * c == d && e", params="int a, int b, int c, int d, boolean e")
        # top node is &&
        assert isinstance(expr, BinaryExpr) and expr.op == "&&"
        eq = expr.left
        assert eq.op == "=="
        plus = eq.left
        assert plus.op == "+"
        assert plus.right.op == "*"

    def test_binary_operators_are_left_associative(self):
        expr = parse_expr("a - b - c", params="int a, int b, int c")
        assert expr.op == "-" and expr.left.op == "-"
        assert isinstance(expr.right, VarRef) and expr.right.name == "c"
        # Each node sits at its operator token.
        assert (expr.position.column, expr.left.position.column) == (
            expr.left.right.position.column + 2,
            expr.left.left.position.column + 2,
        )

    def test_string_literal_is_not_punctuation(self):
        expr = parse_expr('f("(")')
        assert isinstance(expr, CallExpr) and isinstance(expr.args[0], StringLit)
        with pytest.raises(MjParseError, match="expected ';'"):
            parse_expr('f "(" )')

    def test_unary_not(self):
        expr = parse_expr("!a", params="boolean a")
        assert expr.op == "!"

    def test_cast_of_call(self):
        expr = parse_expr("(Foo) f()", params="")
        assert isinstance(expr, CastExpr)
        assert isinstance(expr.operand, CallExpr)


# ----------------------------------------------------------------------
# Differential test against the original parser
# ----------------------------------------------------------------------

#: Expression and statement fragments as token lists, joined by spaces.
#: Atoms include a string literal whose text is ``(``.
_ATOMS = st.sampled_from([
    ["x"], ["a", ".", "b"], ["f", "(", ")"], ["g", "(", "x", ",", "1", ")"],
    ["new", "A", "(", ")"], ["new", "a", ".", "B", "(", "x", ")"], ["this"], ["null"],
    ["true"], ["false"], ["1"], ['"("'], ["'c'"], ["o", ".", "m", "(", "p", ")", ".", "q"],
])
_TYPES = st.sampled_from([
    ["A"], ["int"], ["a", ".", "b", ".", "C"], ["A", "[", "]"], ["int", "[", "]", "[", "]"],
])
_BINARY_OPS = st.sampled_from(
    ["||", "&&", "==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "%"]
)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds(lambda left, op, right: left + [op] + right, inner, _BINARY_OPS, inner),
        st.builds(lambda op, operand: [op] + operand, st.sampled_from(["!", "-"]), inner),
        # A cast, or a parenthesised expression that looks like one.
        st.builds(lambda t, operand: ["("] + t + [")"] + operand, _TYPES, inner),
        inner.map(lambda e: ["("] + e + [")"]),
    ),
    max_leaves=10,
)
_STATEMENTS = st.one_of(
    _EXPRESSIONS.map(lambda e: e + [";"]),
    st.builds(lambda target, value: target + ["="] + value + [";"], _EXPRESSIONS, _EXPRESSIONS),
    st.builds(lambda t, init: t + ["v", "="] + init + [";"], _TYPES, _EXPRESSIONS),
    _EXPRESSIONS.map(lambda e: ["return"] + e + [";"]),
    st.builds(
        lambda cond, e: ["if", "("] + cond + [")"] + e + [";", "else", "{", "}"],
        _EXPRESSIONS, _EXPRESSIONS,
    ),
    _EXPRESSIONS.map(lambda e: ["while", "("] + e + [")", "{", "}"]),
)
_STRAY = st.sampled_from(
    ["(", ")", ";", ".", "=", "+", "!", ",", "[", "]", "{", "}", "int", "A", "new", "return",
     '"("', "')'"]
)


def _outcome(parse, source, name="<minijava>"):
    """The AST, or the error's message, line and column."""
    try:
        return parse(source, name)
    except MiniJavaError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _assert_agrees(source, name="<minijava>"):
    assert _outcome(parse_minijava, source, name) == _outcome(
        oracle_parse_minijava, source, name
    ), name


def _token_ends(text):
    """The offset just past each token of ``text`` (EOF excluded)."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    quoted = (MjTokenKind.STRING_LIT, MjTokenKind.CHAR_LIT)
    return [
        line_starts[tok.line - 1] + tok.column - 1 + len(tok.text) + 2 * (tok.kind in quoted)
        for tok in tokenize(text)[:-1]
    ]


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_STATEMENTS, min_size=1, max_size=3), st.data())
    def test_fragments(self, statements, data):
        tokens = [tok for statement in statements for tok in statement]
        edit = data.draw(st.sampled_from(["none", "drop", "stray"]))
        if edit == "drop":
            del tokens[data.draw(st.integers(0, len(tokens) - 1))]
        elif edit == "stray":
            tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(_STRAY))
        _assert_agrees("class C {\n  void m() {\n    " + " ".join(tokens) + "\n  }\n}")

    def test_bundled_corpus(self):
        for name, text in corpus_texts():
            _assert_agrees(text, name)

    @pytest.mark.parametrize("seed", [7, 11, 20050612])
    def test_generated_corpus(self, scale_api, seed):
        for name, text in _corpusgen().generate_corpus(scale_api, files=100, seed=seed).texts():
            _assert_agrees(text, name)

    def test_bundled_files_truncated_after_every_seventh_token(self):
        for name, text in corpus_texts():
            for end in _token_ends(text)[6::7]:
                _assert_agrees(text[:end], name)


@pytest.fixture(scope="module")
def scale_api():
    return generate_synthetic_api(SyntheticApiConfig())
