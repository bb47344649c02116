"""Tests for registry / jungloid / bundle serialization."""

import json
from collections import Counter

import pytest

from repro.apispec import generate_synthetic_api, SyntheticApiConfig, load_api_text
from repro.data import standard_registry
from repro.graph import (
    BundleFormatError,
    bundle_from_json,
    bundle_to_json,
    elementary_from_dict,
    elementary_to_dict,
    jungloid_from_dict,
    jungloid_to_dict,
    load_graph_from_json,
    registry_from_dict,
    registry_to_dict,
    type_from_string,
    type_to_string,
)
from repro.graph import serialize
from repro.jungloids import (
    ElementaryKind,
    Jungloid,
    downcast,
    field_access,
    instance_call,
    widening,
)
from repro.store import SnapshotCorruptError, SnapshotStore, payload_digest
from repro.typesystem import ArrayType, PRIMITIVES, VOID, named

API = """
package java.lang;
public class String {}
package s;
public interface IThing { String label(); }
public abstract class Base implements IThing {
  public String label();
  public static Base getDefault();
  public Base twin;
}
public class Leaf extends Base {
  public Leaf(Base parent, int n);
  public Leaf[] children();
}
"""


class TestTypeStrings:
    @pytest.mark.parametrize(
        "text",
        ["void", "int", "java.lang.String", "s.Leaf[]", "int[][]"],
    )
    def test_roundtrip(self, text):
        assert type_to_string(type_from_string(text)) == text

    def test_parses_to_expected_kinds(self):
        assert type_from_string("void") == VOID
        assert type_from_string("int") == PRIMITIVES["int"]
        assert type_from_string("a.B") == named("a.B")
        assert isinstance(type_from_string("a.B[]"), ArrayType)


class TestRegistryRoundtrip:
    def test_roundtrip_preserves_everything(self):
        original = load_api_text(API)
        restored = registry_from_dict(registry_to_dict(original))
        assert restored.stats() == original.stats()
        leaf = restored.lookup("s.Leaf")
        assert restored.is_subtype(leaf, restored.lookup("s.IThing"))
        ctor = restored.constructors_of(leaf)[0]
        assert [str(t) for t in ctor.parameter_types] == ["s.Base", "int"]
        assert restored.declaration_of(restored.lookup("s.Base")).abstract

    def test_roundtrip_synthetic_scale(self):
        original = generate_synthetic_api(SyntheticApiConfig(packages=3))
        restored = registry_from_dict(registry_to_dict(original))
        assert restored.stats() == original.stats()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            registry_from_dict({"format": "nope", "types": []})

    def test_object_methods_preserved(self):
        original = load_api_text(API)
        from repro.typesystem import Method

        original.add_method(Method(original.object_type, "toString", named("java.lang.String")))
        restored = registry_from_dict(registry_to_dict(original))
        assert restored.find_method(restored.object_type, "toString")


class TestJungloidRoundtrip:
    def _registry(self):
        return load_api_text(API)

    def test_instance_call_roundtrip(self):
        r = self._registry()
        m = r.find_method(r.lookup("s.Base"), "label")[0]
        e = instance_call(m)[0]
        restored = elementary_from_dict(r, elementary_to_dict(e))
        assert restored == e

    def test_widening_and_cast_roundtrip(self):
        r = self._registry()
        for e in (
            widening(named("s.Leaf"), named("s.Base")),
            downcast(named("s.Base"), named("s.Leaf")),
        ):
            assert elementary_from_dict(r, elementary_to_dict(e)) == e

    def test_constructor_variant_roundtrip(self):
        from repro.jungloids import constructor_call

        r = self._registry()
        ctor = r.constructors_of(r.lookup("s.Leaf"))[0]
        e = constructor_call(ctor)[0]  # flow through the Base parameter
        restored = elementary_from_dict(r, elementary_to_dict(e))
        assert restored.flow_position == e.flow_position
        assert restored == e

    def test_whole_jungloid_roundtrip(self):
        r = self._registry()
        m = r.find_method(r.lookup("s.Base"), "label")[0]
        j = Jungloid.of(widening(named("s.Leaf"), named("s.Base")), instance_call(m)[0])
        restored = jungloid_from_dict(r, jungloid_to_dict(j))
        assert restored.steps == j.steps

    def test_unknown_member_rejected(self):
        r = self._registry()
        entry = {
            "kind": "call",
            "input": "s.Base",
            "output": "java.lang.String",
            "flow": -1,
            "member": {"method": "ghost", "owner": "s.Base", "params": []},
        }
        with pytest.raises(ValueError):
            elementary_from_dict(r, entry)


class TestEveryKindRoundtrip:
    """Satellite coverage: one serialize round-trip per ElementaryKind,
    plus array-typed members and mined multi-step jungloids, so a
    snapshot can never silently drop a step shape."""

    def _registry(self):
        return load_api_text(API)

    def _one_of_each(self, r):
        from repro.jungloids import constructor_call, field_access, static_call

        base = r.lookup("s.Base")
        leaf = r.lookup("s.Leaf")
        return {
            ElementaryKind.FIELD_ACCESS: field_access(r.find_field(base, "twin")),
            ElementaryKind.STATIC_CALL: static_call(
                r.find_method(base, "getDefault")[0]
            )[0],
            ElementaryKind.CONSTRUCTOR: constructor_call(r.constructors_of(leaf)[0])[0],
            ElementaryKind.INSTANCE_CALL: instance_call(
                r.find_method(base, "label")[0]
            )[0],
            ElementaryKind.WIDENING: widening(named("s.Leaf"), named("s.Base")),
            ElementaryKind.DOWNCAST: downcast(named("s.Base"), named("s.Leaf")),
        }

    @pytest.mark.parametrize("kind", list(ElementaryKind))
    def test_kind_roundtrips(self, kind):
        r = self._registry()
        e = self._one_of_each(r)[kind]
        entry = elementary_to_dict(e)
        assert entry["kind"] == kind.value
        restored = elementary_from_dict(r, entry)
        assert restored == e
        assert restored.kind is kind

    def test_array_returning_method_roundtrips(self):
        r = self._registry()
        m = r.find_method(r.lookup("s.Leaf"), "children")[0]
        e = instance_call(m)[0]
        restored = elementary_from_dict(r, elementary_to_dict(e))
        assert restored == e
        assert isinstance(restored.output_type, ArrayType)
        assert type_to_string(restored.output_type) == "s.Leaf[]"

    def test_array_widening_roundtrips(self):
        r = self._registry()
        e = widening(type_from_string("s.Leaf[]"), r.object_type)
        assert elementary_from_dict(r, elementary_to_dict(e)) == e

    def test_mined_multistep_survives_bundle(self):
        from repro.jungloids import field_access, static_call

        r = self._registry()
        base = r.lookup("s.Base")
        mined = [
            # static getDefault() -> .twin field -> widen to IThing
            Jungloid.of(
                static_call(r.find_method(base, "getDefault")[0])[0],
                field_access(r.find_field(base, "twin")),
                widening(named("s.Base"), named("s.IThing")),
            ),
            # downcast then instance call
            Jungloid.of(
                downcast(named("s.Base"), named("s.Leaf")),
                instance_call(r.find_method(r.lookup("s.Leaf"), "children")[0])[0],
            ),
        ]
        registry2, mined2 = bundle_from_json(bundle_to_json(r, mined))
        assert len(mined2) == 2
        for original, restored in zip(mined, mined2):
            assert restored.steps == original.steps
            assert [s.kind for s in restored.steps] == [
                s.kind for s in original.steps
            ]
            assert restored.length == original.length

    def test_every_kind_survives_snapshot(self, tmp_path):
        """Belt and braces: the same shapes through the durable store."""
        from repro.store import SnapshotStore

        r = self._registry()
        mined = [Jungloid.of(e) for e in self._one_of_each(r).values()]
        store = SnapshotStore(tmp_path / "kinds.psnap")
        store.save(r, mined)
        loaded = store.load()
        assert [j.steps for j in loaded.mined] == [j.steps for j in mined]


#: ``API`` plus an overloaded method.
OVERLOAD_API = API + """
package u;
public class Over {
  public s.Base pick(s.Base b);
  public s.Base pick(s.Leaf l);
}
"""


class TestBundle:
    def test_bundle_roundtrip_and_rebuild(self):
        r = load_api_text(API)
        m = r.find_method(r.lookup("s.Base"), "label")[0]
        mined = Jungloid.of(
            instance_call(m)[0],
        )
        text = bundle_to_json(r, [mined])
        json.loads(text)  # valid JSON
        registry2, mined2 = bundle_from_json(text)
        assert registry2.stats() == r.stats()
        assert mined2[0].steps == mined.steps

        graph = load_graph_from_json(text)
        assert graph.mined_path_count() == 1

    def test_repeated_steps_decode_to_one_object(self):
        r = load_api_text(OVERLOAD_API)
        base, leaf = r.lookup("s.Base"), r.lookup("s.Leaf")
        twin = field_access(r.find_field(base, "twin"))
        label = instance_call(r.find_method(base, "label")[0])[0]
        cast = downcast(base, leaf)
        # Overloads: entries that differ only in their parameter types.
        picks = [instance_call(m)[0] for m in r.find_method(r.lookup("u.Over"), "pick")]
        mined = [
            Jungloid((twin, label)),
            Jungloid((twin, twin, label)),
            Jungloid((twin, cast)),
            Jungloid((cast,)),
            *(Jungloid((pick,)) for pick in picks),
        ]
        text = bundle_to_json(r, mined)
        registry2, mined2 = bundle_from_json(text)
        assert [j.steps for j in mined2] == [j.steps for j in mined]
        twins = [j.steps[0] for j in mined2[:3]] + [mined2[1].steps[1]]
        assert all(step is twins[0] for step in twins)
        assert mined2[0].steps[1] is mined2[1].steps[2]
        assert mined2[2].steps[1] is mined2[3].steps[0]
        assert bundle_to_json(registry2, mined2) == text

    def test_a_bundle_parses_each_type_string_once(self, monkeypatch):
        r = load_api_text(API)
        base, leaf = r.lookup("s.Base"), r.lookup("s.Leaf")
        label = instance_call(r.find_method(base, "label")[0])[0]
        mined = [Jungloid((downcast(base, leaf), widening(leaf, base), label))]
        text = bundle_to_json(r, mined)
        parsed = Counter()
        original = serialize.type_from_string

        def counting(type_string):
            parsed[type_string] += 1
            return original(type_string)

        monkeypatch.setattr(serialize, "type_from_string", counting)
        bundle_from_json(text)
        assert set(parsed.values()) == {1}
        assert {"s.Base", "s.Leaf", "java.lang.String"} <= set(parsed)

    def test_bundle_bad_format(self):
        with pytest.raises(ValueError):
            bundle_from_json('{"format": "bogus"}')


def _type_strings(data):
    """Every type string of a registry dict, once per occurrence."""
    members = [*data["object_methods"]]
    for entry in data["types"]:
        members += [*entry["fields"], *entry["methods"], *entry["constructors"]]
    for member in members:
        yield from (member[key] for key in ("type", "returns") if key in member)
        yield from (p["type"] for p in member.get("params", ()))


def _first(data, kind, with_params=False):
    """The first ``kind`` entry ("fields", "methods" or "constructors")."""
    return next(
        member
        for entry in data["registry"]["types"]
        for member in entry[kind]
        if member.get("params") or not with_params
    )


#: ``API`` plus a method that takes parameters.
DECODE_API = API + """
package t;
public class Box {
  public Box wrap(s.Base b, int n);
}
"""
#: One bad string per member kind and key, and what decoding it says.
BAD_ENTRIES = {
    "field-visibility": (lambda d: _first(d, "fields"), "visibility", "bogus"),
    "method-visibility": (lambda d: _first(d, "methods"), "visibility", "bogus"),
    "constructor-visibility": (lambda d: _first(d, "constructors"), "visibility", "bogus"),
    "field-type": (lambda d: _first(d, "fields"), "type", "9bad"),
    "method-returns": (lambda d: _first(d, "methods"), "returns", "9bad"),
    "method-parameter": (lambda d: _first(d, "methods", True)["params"][0], "type", "9bad"),
    "constructor-parameter": (lambda d: _first(d, "constructors", True)["params"][0], "type", "a..b"),
}
BAD_MESSAGES = {
    "bogus": "bundle malformed: 'bogus' is not a valid Visibility",
    "9bad": "bundle malformed: invalid name '9bad': not a valid identifier",
    "a..b": "bundle malformed: invalid name '': not a valid identifier",
}


class TestRegistryDecode:
    """One decode parses each distinct string once, and fails as before."""

    @pytest.fixture(scope="class", params=["scale", "bundled"])
    def data(self, request):
        if request.param == "scale":
            return registry_to_dict(generate_synthetic_api(SyntheticApiConfig()))
        return registry_to_dict(standard_registry())

    def test_the_dict_round_trips(self, data):
        assert registry_to_dict(registry_from_dict(data)) == data

    def test_each_type_string_is_parsed_once(self, data, monkeypatch):
        parsed = Counter()
        original = serialize.type_from_string

        def counting(text):
            parsed[text] += 1
            return original(text)

        monkeypatch.setattr(serialize, "type_from_string", counting)
        registry_from_dict(data)
        occurrences = list(_type_strings(data))
        assert parsed == Counter(set(occurrences))
        assert len(occurrences) > 2 * len(parsed)

    @pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
    def test_a_bad_string_is_a_bundle_format_error(self, case):
        data = json.loads(bundle_to_json(load_api_text(DECODE_API)))
        entry, key, bad = BAD_ENTRIES[case]
        entry(data)[key] = bad
        with pytest.raises(BundleFormatError) as raised:
            bundle_from_json(json.dumps(data))
        assert str(raised.value) == BAD_MESSAGES[bad]

    @pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
    def test_a_checksummed_bad_string_is_corruption(self, case, tmp_path):
        store = SnapshotStore(tmp_path / "g.psnap")
        store.save(load_api_text(DECODE_API))
        head, _, payload = store.path.read_bytes().partition(b"\n")
        header, data = json.loads(head), json.loads(payload)
        entry, key, bad = BAD_ENTRIES[case]
        entry(data)[key] = bad
        payload = json.dumps(data).encode()
        header["manifest"].update(payload_bytes=len(payload), payload_sha256=payload_digest(payload))
        store.path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(SnapshotCorruptError) as raised:
            store.load()
        assert str(raised.value) == f"{store.path}: {BAD_MESSAGES[bad]}"
