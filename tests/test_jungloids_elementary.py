"""Tests for elementary jungloids (Definition 2)."""

from repro.jungloids import (
    NO_INPUT,
    RECEIVER,
    ElementaryKind,
    constructor_call,
    downcast,
    field_access,
    instance_call,
    static_call,
    widening,
)
from repro.typesystem import (
    Constructor,
    Field,
    Method,
    Parameter,
    PRIMITIVES,
    VOID,
    named,
)

A = named("p.A")
B = named("p.B")
C = named("p.C")
STRING = named("java.lang.String")


class TestFieldAccess:
    def test_instance_field(self):
        e = field_access(Field(A, "next", B))
        assert e.kind is ElementaryKind.FIELD_ACCESS
        assert e.input_type == A
        assert e.output_type == B
        assert e.render("x") == "x.next"

    def test_static_field_has_void_input(self):
        e = field_access(Field(A, "DEFAULT", B, static=True))
        assert e.input_type == VOID
        assert e.flow_position == NO_INPUT
        assert e.render("") == "p.A.DEFAULT"


class TestInstanceCall:
    def test_receiver_variant(self):
        m = Method(A, "get", B)
        variants = instance_call(m)
        assert len(variants) == 1
        e = variants[0]
        assert e.flow_position == RECEIVER
        assert e.input_type == A
        assert e.render("x") == "x.get()"

    def test_parameter_variants(self):
        m = Method(A, "join", B, (Parameter("c", C), Parameter("n", PRIMITIVES["int"])))
        variants = instance_call(m)
        # Receiver flow + one per reference-typed parameter.
        assert [v.flow_position for v in variants] == [RECEIVER, 0]
        via_param = variants[1]
        assert via_param.input_type == C
        # Receiver and the int become free variables.
        assert [v.type for v in via_param.free_variables] == [A, PRIMITIVES["int"]]
        rendered = via_param.render("x", ["recv", "n"])
        assert rendered == "recv.join(x, n)"

    def test_receiver_variant_keeps_params_free(self):
        m = Method(A, "join", B, (Parameter("c", C),))
        e = instance_call(m)[0]
        assert [v.type for v in e.free_variables] == [C]
        assert e.render("x", ["other"]) == "x.join(other)"


class TestStaticCall:
    def test_static_with_reference_param(self):
        m = Method(A, "of", B, (Parameter("c", C),), static=True)
        variants = static_call(m)
        assert len(variants) == 1
        e = variants[0]
        assert e.input_type == C
        assert e.render("x") == "p.A.of(x)"

    def test_static_no_reference_params_is_void_input(self):
        m = Method(A, "make", B, (Parameter("n", PRIMITIVES["int"]),), static=True)
        e = static_call(m)[0]
        assert e.input_type == VOID
        assert len(e.free_variables) == 1
        assert e.render("", ["n"]) == "p.A.make(n)"

    def test_two_reference_params_two_variants(self):
        m = Method(A, "pair", B, (Parameter("l", C), Parameter("r", C)), static=True)
        variants = static_call(m)
        assert [v.flow_position for v in variants] == [0, 1]
        assert variants[1].render("x", ["lhs"]) == "p.A.pair(lhs, x)"


class TestConstructorCall:
    def test_zero_arg_constructor(self):
        e = constructor_call(Constructor(A))[0]
        assert e.input_type == VOID
        assert e.render("") == "new p.A()"

    def test_constructor_with_reference_param(self):
        e = constructor_call(Constructor(A, (Parameter("b", B),)))[0]
        assert e.input_type == B
        assert e.output_type == A
        assert e.render("x") == "new p.A(x)"


class TestConversions:
    def test_widening(self):
        e = widening(B, A)
        assert e.is_widening
        assert e.render("x") == "x"
        assert e.reference_free_variables() == ()

    def test_downcast(self):
        e = downcast(A, B)
        assert e.is_downcast
        assert e.render("x") == "(p.B) x"

    def test_describe(self):
        assert "λx." in widening(B, A).describe()


class TestFreeVariables:
    def test_reference_free_variables_excludes_primitives(self):
        m = Method(A, "mix", B, (Parameter("c", C), Parameter("n", PRIMITIVES["int"])))
        via_receiver = instance_call(m)[0]
        assert [v.type for v in via_receiver.free_variables] == [C, PRIMITIVES["int"]]
        assert [v.type for v in via_receiver.reference_free_variables()] == [C]

    def test_every_parameter_type_names_its_variable(self):
        # The fluent builder accepts a ``void`` parameter; it still gets a name.
        m = Method(A, "odd", B, (Parameter("v", VOID), Parameter("s", STRING)))
        names = [v.name for v in instance_call(m)[0].free_variables]
        assert names == ["void1", "string2"]

    def test_render_with_wrong_free_count_raises(self):
        m = Method(A, "join", B, (Parameter("c", C),))
        e = instance_call(m)[0]
        try:
            e.render("x", [])
        except ValueError as err:
            assert "free-variable" in str(err)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestRenderParts:
    """``render_parts`` splits a step's rendering around its input, so
    concatenating the parts must equal rendering the step directly."""

    INPUTS = ("x", "(p.C) y.get(z)", "")

    def test_every_kind_on_the_bundled_graph(self, standard_prospector):
        kinds = set()
        templated = 0
        for edge in standard_prospector.graph.edges():
            step = edge.elementary
            kinds.add(step.kind)
            parts = step.render_parts
            if parts is None:
                continue
            templated += 1
            for expr in self.INPUTS:
                assert parts[0] + expr + parts[1] == step.render(expr)
        assert kinds == set(ElementaryKind)
        assert templated > 0

    def test_static_field_ignores_its_input(self):
        e = field_access(Field(A, "DEFAULT", B, static=True))
        assert e.render_parts is None
        assert e.render("x") == e.render("") == "p.A.DEFAULT"

    def test_parts_leave_equality_and_hash_alone(self):
        m = Method(A, "mix", B, (Parameter("c", C),))
        first, second = instance_call(m)[0], instance_call(m)[0]
        assert first.render_parts is not None
        assert first == second and hash(first) == hash(second)
