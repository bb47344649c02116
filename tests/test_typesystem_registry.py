"""Tests for the type registry: declarations, hierarchy, member lookup."""

import pytest

from repro.typesystem import (
    Constructor,
    DuplicateMemberError,
    DuplicateTypeError,
    Field,
    HierarchyError,
    Method,
    Parameter,
    PRIMITIVES,
    TypeKind,
    TypeRegistry,
    UnknownTypeError,
    Visibility,
    named,
)


@pytest.fixture()
def registry():
    r = TypeRegistry()
    r.declare("a.Base")
    r.declare("a.Mid", superclass="a.Base")
    r.declare("a.Leaf", superclass="a.Mid")
    r.declare("a.ISel", kind=TypeKind.INTERFACE)
    r.declare("a.IStructured", kind=TypeKind.INTERFACE, interfaces=["a.ISel"])
    r.declare("b.Impl", superclass="a.Base", interfaces=["a.IStructured"])
    return r


class TestDeclarations:
    def test_object_is_implicit(self):
        r = TypeRegistry()
        assert "java.lang.Object" in r
        assert len(r) == 1

    def test_declare_and_lookup(self, registry):
        assert registry.lookup("a.Base") == named("a.Base")

    def test_lookup_unknown_raises(self, registry):
        with pytest.raises(UnknownTypeError):
            registry.lookup("a.Nope")

    def test_duplicate_type_rejected(self, registry):
        with pytest.raises(DuplicateTypeError):
            registry.declare("a.Base")

    def test_interface_cannot_extend_class(self):
        r = TypeRegistry()
        r.declare("x.C")
        with pytest.raises(HierarchyError):
            r.declare("x.I", kind=TypeKind.INTERFACE, superclass="x.C")

    def test_lookup_simple(self, registry):
        assert registry.lookup_simple("Base") == [named("a.Base")]
        assert registry.lookup_simple("Missing") == []

    def test_contains(self, registry):
        assert "a.Mid" in registry
        assert "a.Nope" not in registry


class TestHierarchy:
    def test_default_superclass_is_object(self, registry):
        assert registry.direct_supertypes(named("a.Base")) == (registry.object_type,)

    def test_transitive_supertypes(self, registry):
        supers = registry.all_supertypes(named("a.Leaf"))
        assert named("a.Mid") in supers
        assert named("a.Base") in supers
        assert registry.object_type in supers

    def test_interface_supertypes_include_object(self, registry):
        supers = registry.all_supertypes(named("a.IStructured"))
        assert named("a.ISel") in supers
        assert registry.object_type in supers

    def test_is_subtype_reflexive(self, registry):
        assert registry.is_subtype(named("a.Mid"), named("a.Mid"))

    def test_is_subtype_through_class_and_interface(self, registry):
        impl = named("b.Impl")
        assert registry.is_subtype(impl, named("a.Base"))
        assert registry.is_subtype(impl, named("a.ISel"))
        assert not registry.is_subtype(named("a.Base"), impl)

    def test_everything_subtypes_object(self, registry):
        assert registry.is_subtype(named("a.ISel"), registry.object_type)

    def test_direct_and_all_subtypes(self, registry):
        assert named("a.Mid") in registry.direct_subtypes(named("a.Base"))
        all_subs = registry.all_subtypes(named("a.Base"))
        assert named("a.Leaf") in all_subs
        assert named("b.Impl") in all_subs

    def test_depth(self, registry):
        assert registry.depth(registry.object_type) == 0
        assert registry.depth(named("a.Base")) == 1
        assert registry.depth(named("a.Leaf")) == 3

    def test_cycle_detection(self):
        r = TypeRegistry()
        r.declare("x.A", superclass="x.B")
        r.declare("x.B", superclass="x.A")
        with pytest.raises(HierarchyError):
            r.all_supertypes(named("x.A"))

    def test_widening_targets(self, registry):
        targets = registry.widening_targets(named("b.Impl"))
        assert named("a.Base") in targets
        assert named("a.IStructured") in targets

    def test_array_subtyping(self, registry):
        from repro.typesystem import array_of

        mid_arr = array_of(named("a.Mid"))
        base_arr = array_of(named("a.Base"))
        assert registry.is_subtype(mid_arr, base_arr)
        assert registry.is_subtype(mid_arr, registry.object_type)
        assert not registry.is_subtype(base_arr, mid_arr)


class TestMembers:
    @pytest.fixture()
    def with_members(self, registry):
        base = named("a.Base")
        leaf = named("a.Leaf")
        registry.add_method(Method(base, "getName", named("java.lang.Object")))
        registry.add_method(
            Method(leaf, "getName", named("java.lang.Object"))  # override
        )
        registry.add_method(
            Method(base, "size", PRIMITIVES["int"], static=True)
        )
        registry.add_field(Field(base, "count", PRIMITIVES["int"]))
        registry.add_constructor(Constructor(base))
        return registry

    def test_duplicate_method_rejected(self, with_members):
        with pytest.raises(DuplicateMemberError):
            with_members.add_method(
                Method(named("a.Base"), "getName", named("java.lang.Object"))
            )

    def test_overload_allowed(self, with_members):
        with_members.add_method(
            Method(
                named("a.Base"),
                "getName",
                named("java.lang.Object"),
                (Parameter("i", PRIMITIVES["int"]),),
            )
        )
        assert len(with_members.find_method(named("a.Base"), "getName")) == 2

    def test_duplicate_field_rejected(self, with_members):
        with pytest.raises(DuplicateMemberError):
            with_members.add_field(Field(named("a.Base"), "count", PRIMITIVES["int"]))

    def test_duplicate_constructor_rejected(self, with_members):
        with pytest.raises(DuplicateMemberError):
            with_members.add_constructor(Constructor(named("a.Base")))

    def test_inherited_methods(self, with_members):
        methods = with_members.all_methods(named("a.Mid"))
        assert any(m.name == "getName" for m in methods)

    def test_override_shadows(self, with_members):
        methods = [m for m in with_members.all_methods(named("a.Leaf")) if m.name == "getName"]
        assert len(methods) == 1
        assert methods[0].owner == named("a.Leaf")

    def test_inherited_fields(self, with_members):
        assert with_members.find_field(named("a.Leaf"), "count") is not None

    def test_find_method_by_arity(self, with_members):
        assert with_members.find_method(named("a.Base"), "size", arity=0)
        assert not with_members.find_method(named("a.Base"), "size", arity=2)

    def test_stats(self, with_members):
        stats = with_members.stats()
        assert stats["types"] == 7  # 6 declared + Object
        assert stats["interfaces"] == 2
        assert stats["methods"] == 3
        assert stats["fields"] == 1
        assert stats["constructors"] == 1


class TestMemberLookupMemo:
    """Inherited-member lookups are memoized per type; every edit that can
    change an answer must make the next lookup see it."""

    def test_member_added_after_lookup_is_visible(self, registry):
        leaf, base = named("a.Leaf"), named("a.Base")
        assert registry.find_method(leaf, "extra") == ()
        assert registry.find_field(leaf, "extra") is None
        # Added on a supertype, after the subtype's lookups were memoized.
        method = registry.add_method(Method(base, "extra", named("java.lang.Object")))
        assert registry.find_method(leaf, "extra") == (method,)
        assert registry.find_field(leaf, "extra") is None
        field = registry.add_field(Field(base, "extra", PRIMITIVES["int"]))
        assert registry.find_field(leaf, "extra") == field

    def test_supertype_patch_is_visible_after_invalidation(self, registry):
        other = registry.declare("c.Other")
        registry.add_method(Method(other, "only", named("java.lang.Object")))
        loner = registry.declare("c.Loner")
        assert registry.find_method(loner, "only") == ()
        registry.declaration_of(loner).superclass = other
        registry.invalidate_caches()
        assert [m.owner for m in registry.find_method(loner, "only")] == [other]

    def test_declare_and_constructor_keep_answers(self, registry):
        base = named("a.Base")
        registry.add_method(Method(base, "m", named("java.lang.Object")))
        before = registry.all_methods(base)
        registry.declare("d.New", superclass="a.Base")
        registry.add_constructor(Constructor(base))
        assert registry.all_methods(base) == before
        assert registry.all_methods(named("d.New")) == before

    def test_clone_memo_is_independent(self, registry):
        base = named("a.Base")
        registry.all_methods(base)
        clone = registry.clone()
        clone.add_method(Method(base, "cloned", named("java.lang.Object")))
        assert registry.find_method(base, "cloned") == ()
        assert len(clone.find_method(base, "cloned")) == 1

    @pytest.mark.parametrize("member", ["field", "method", "constructor"])
    @pytest.mark.parametrize("written", ["source", "clone"])
    def test_clone_copies_a_shared_declaration_on_first_write(
        self, registry, member, written
    ):
        base = named("a.Base")
        obj = named("java.lang.Object")
        add = {
            "field": lambda r, k: r.add_field(Field(base, f"f{k}", obj)),
            "method": lambda r, k: r.add_method(Method(base, f"m{k}", obj)),
            "constructor": lambda r, k: r.add_constructor(
                Constructor(base, tuple(Parameter(f"p{i}", obj) for i in range(k)))
            ),
        }[member]
        shape = {
            "field": lambda r: r.declared_fields(base),
            "method": lambda r: r.declared_methods(base),
            "constructor": lambda r: r.constructors_of(base),
        }[member]
        add(registry, 1)
        clone = registry.clone()
        writer, other = (registry, clone) if written == "source" else (clone, registry)
        before = shape(other)
        add(writer, 2)
        add(writer, 3)
        assert len(shape(writer)) == len(before) + 2
        assert shape(other) == before
        # The other side copies its own, and the writer does not see it.
        add(other, 4)
        assert len(shape(other)) == len(before) + 1
        assert len(shape(writer)) == len(before) + 2
        # A declaration neither side wrote stays shared.
        assert clone.declaration_of(named("a.Leaf")) is registry.declaration_of(
            named("a.Leaf")
        )

    def test_clone_shares_declarations_until_written(self, registry):
        clone = registry.clone()
        for decl in registry.all_declarations():
            assert clone.declaration_of(decl.type) is decl

    def test_a_clone_of_a_clone_stays_independent(self, registry):
        base = named("a.Base")
        first = registry.clone()
        first.add_method(Method(base, "first", named("java.lang.Object")))
        second = first.clone()
        second.add_method(Method(base, "second", named("java.lang.Object")))
        first.add_method(Method(base, "again", named("java.lang.Object")))
        assert [m.name for m in registry.declared_methods(base)] == []
        assert [m.name for m in first.declared_methods(base)] == ["first", "again"]
        assert [m.name for m in second.declared_methods(base)] == ["first", "second"]

    def test_declaring_in_a_clone_leaves_simple_names_alone(self, registry):
        clone = registry.clone()
        clone.declare("z.Base")
        assert registry.lookup_simple("Base") == [named("a.Base")]
        assert clone.lookup_simple("Base") == [named("a.Base"), named("z.Base")]
        registry.declare("y.Base")
        assert clone.lookup_simple("Base") == [named("a.Base"), named("z.Base")]

    def test_get_returns_declared_type_or_none(self, registry):
        assert registry.get("a.Mid") == named("a.Mid")
        assert registry.get("a.Nope") is None
        assert registry.clone().get("b.Impl") == named("b.Impl")


def _fresh_subtypes(registry):
    """Each declared type's direct subtypes, from a scan of every declaration."""
    below = {t: set() for t in registry.all_types()}
    for decl in registry.all_declarations():
        if decl.type != registry.object_type:
            for sup in registry.direct_supertypes(decl.type):
                below.setdefault(sup, set()).add(decl.type)
    return {t: sorted(subs, key=lambda x: x.name) for t, subs in below.items()}


class TestSubclassIndex:
    """A clone starts from its source's direct-subtype index and indexes
    only the declarations it comes to own."""

    def _patched_clone(self, source):
        clone = source.clone()
        clone.direct_subtypes(named("a.Base"))  # index before the edits
        clone.declare("c.Leaf2", superclass="a.Mid")
        clone.declare("c.Moved", superclass="a.Base")
        clone.declare("c.Face", kind=TypeKind.INTERFACE)
        # Patch supertypes in place, as the corpus resolver does.
        decl = clone.declaration_of(named("c.Moved"))
        decl.superclass, decl.interfaces = named("a.Leaf"), (named("a.ISel"),)
        clone.declaration_of(named("c.Face")).interfaces = (named("a.IStructured"),)
        # A shared declaration, copied on its first write, then re-parented.
        clone.add_method(Method(named("a.Leaf"), "m", named("java.lang.Object")))
        clone.declaration_of(named("a.Leaf")).superclass = named("a.Base")
        clone.invalidate_caches()
        return clone

    def test_clone_subtypes_equal_a_fresh_index(self, registry):
        clone = self._patched_clone(registry)
        for target in (clone, clone.clone(), registry):
            want = _fresh_subtypes(target)
            for t in target.all_types():
                assert list(target.direct_subtypes(t)) == want[t], t
        assert set(clone.all_subtypes(named("a.Mid"))) == {named("c.Leaf2")}
        assert named("a.Leaf") in registry.all_subtypes(named("a.Mid"))

    def test_corpus_classes_never_reach_the_source_index(self, registry):
        before = {t: registry.all_subtypes(t) for t in registry.all_types()}
        self._patched_clone(registry)
        assert {t: registry.all_subtypes(t) for t in registry.all_types()} == before
        assert not any(
            name.dotted.startswith("c.") for names in registry._subclasses.values()
            for name in names
        )
        assert _fresh_subtypes(registry) == {
            t: list(registry.direct_subtypes(t)) for t in registry.all_types()
        }

    def test_source_builds_its_index_once(self, registry, monkeypatch):
        registry.clone()
        indexed = []
        original = TypeRegistry._index_declarations

        def counting(self, names):
            names = list(names)
            indexed.extend(names)
            return original(self, names)

        monkeypatch.setattr(TypeRegistry, "_index_declarations", counting)
        clone = registry.clone()
        clone.declare("c.New", superclass="a.Leaf")
        assert clone.all_subtypes(named("a.Mid")) == (named("a.Leaf"), named("c.New"))
        assert [n.dotted for n in indexed] == ["c.New"]


class TestVisibility:
    def test_member_visibility_recorded(self):
        r = TypeRegistry()
        t = r.declare("v.T")
        m = Method(t, "hidden", t, visibility=Visibility.PROTECTED)
        r.add_method(m)
        assert not m.is_public
        assert m.visibility is Visibility.PROTECTED
