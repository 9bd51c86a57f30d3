"""Unit tests for class factories, the COM runtime, and marshaling."""

import copy
import enum
import random

import pytest

from repro.com.factory import ClassFactory
from repro.com.guids import GUID, guid_from_name
from repro.com.interfaces import declare_interface
from repro.com.marshal import ObjRef, _check, estimate_wire_size, marshal
from repro.com.object import ComObject
from repro.com.runtime import ComRuntime
from repro.errors import ComError

from tests.conftest import make_world
from tests.nt.test_memory import alias_pattern, mutables, typed

IECHO = declare_interface("IEcho", ("Echo",))


class Echo(ComObject):
    IMPLEMENTS = (IECHO,)

    def Echo(self, value):
        return value


def make_runtime():
    world = make_world()
    system = world.add_machine("host")
    return world, ComRuntime(system, world.network)


# -- factory ------------------------------------------------------------------


def test_factory_creates_instances_and_counts():
    factory = ClassFactory(guid_from_name("clsid"), Echo, server_name="Echo")
    first = factory.CreateInstance()
    second = factory.CreateInstance()
    assert isinstance(first, Echo) and isinstance(second, Echo)
    assert first is not second


def test_factory_rejects_non_com_producer():
    factory = ClassFactory(guid_from_name("clsid"), lambda: object())
    with pytest.raises(ComError):
        factory.CreateInstance()


def test_factory_lock_server():
    factory = ClassFactory(guid_from_name("clsid"), Echo)
    factory.LockServer(True)
    assert factory.locked
    factory.LockServer(False)
    assert not factory.locked


# -- runtime -----------------------------------------------------------------------


def test_register_and_create_by_progid():
    world, runtime = make_runtime()
    runtime.register_class("Test.Echo", Echo)
    instance = runtime.create_instance("Test.Echo")
    assert isinstance(instance, Echo)


def test_register_mirrors_into_nt_registry():
    world, runtime = make_runtime()
    clsid = runtime.register_class("Test.Echo", Echo)
    registry = runtime.system.registry
    assert registry.get_value(f"CLSID\\{clsid}", "ProgID") == "Test.Echo"
    assert registry.get_value("ProgID\\Test.Echo", "CLSID") == str(clsid)


def test_create_by_clsid():
    world, runtime = make_runtime()
    clsid = runtime.register_class("Test.Echo", Echo)
    assert isinstance(runtime.create_instance(clsid), Echo)


def test_unregister_removes_class_and_registry_keys():
    world, runtime = make_runtime()
    clsid = runtime.register_class("Test.Echo", Echo)
    runtime.unregister_class("Test.Echo")
    with pytest.raises(ComError):
        runtime.create_instance("Test.Echo")
    assert not runtime.system.registry.has_key(f"CLSID\\{clsid}")


def test_unknown_progid_rejected():
    world, runtime = make_runtime()
    with pytest.raises(ComError):
        runtime.create_instance("No.Such.Class")
    with pytest.raises(ComError):
        runtime.unregister_class("No.Such.Class")


# -- marshaling ----------------------------------------------------------------------


def test_marshal_plain_data_roundtrip():
    value = {"a": [1, 2.5, "s", None, True], "b": {"nested": (1, 2)}}
    copied, size = marshal(value)
    assert copied == {"a": [1, 2.5, "s", None, True], "b": {"nested": (1, 2)}}
    assert size == estimate_wire_size(value)


def test_marshal_deep_copies():
    inner = [1, 2]
    copied, _size = marshal({"list": inner})
    inner.append(3)
    assert copied["list"] == [1, 2]


def test_marshal_rejects_arbitrary_objects():
    class Custom:
        pass

    with pytest.raises(ComError):
        marshal(Custom())
    with pytest.raises(ComError):
        marshal({"ok": Custom()})


def test_marshal_rejects_exotic_dict_keys():
    with pytest.raises(ComError):
        marshal({(1, 2): "tuple key"})


def test_marshal_rejects_excessive_depth():
    value = current = []
    for _ in range(64):
        nested = []
        current.append(nested)
        current = nested
    with pytest.raises(ComError):
        marshal(value)


def test_objref_marshalable_and_supports():
    ref = ObjRef(node="n", oid=1, iids=(IECHO.iid,), label="echo")
    copied, size = marshal({"ref": ref})
    assert copied["ref"] == ref
    assert size == 8 + 7 + 32
    assert ref.supports(IECHO.iid)


def test_wire_size_grows_with_payload():
    small = estimate_wire_size({"a": 1})
    large = estimate_wire_size({"a": "x" * 10_000})
    assert large > small + 9_000


# -- marshal against the check -> deepcopy -> size path ------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


class Opaque:
    pass


def reference_marshal(value):
    """What ``marshal`` must match: ``_check``, ``deepcopy``, then sizing."""
    try:
        _check(value)
    except ComError as exc:
        return ("error", type(exc), exc.hresult, str(exc))
    return ("ok", copy.deepcopy(value), estimate_wire_size(value))


def marshal_outcome(value):
    try:
        copied, size = marshal(value)
    except ComError as exc:
        return ("error", type(exc), exc.hresult, str(exc))
    return ("ok", copied, size)


def assert_marshal_matches_reference(value):
    expected = reference_marshal(value)
    actual = marshal_outcome(value)
    if expected[0] == "error":
        assert actual == expected
        return
    assert actual[0] == "ok", actual
    _, expected_copy, expected_size = expected
    _, copied, size = actual
    assert typed(copied) == typed(expected_copy)
    assert size == expected_size
    assert alias_pattern(copied) == alias_pattern(expected_copy)
    source_ids = {id(item) for item in mutables(value, [])}
    assert not any(id(item) in source_ids for item in mutables(copied, []))


def _wire_leaf(rng):
    roll = rng.random()
    if roll < 0.04:
        return Level.HIGH
    if roll < 0.08:
        return Tag(f"tag{rng.randint(0, 9)}")
    if roll < 0.1:
        return ObjRef(node="n", oid=rng.randint(1, 9), iids=(IECHO.iid,), label="echo")
    if roll < 0.12:
        return guid_from_name(f"g{rng.randint(0, 9)}")
    if roll < 0.13:
        return Opaque()
    return rng.choice(
        [rng.randint(-99, 99), rng.random(), float("nan"), -0.0, True, None, "s" * rng.randint(0, 5), b"raw"]
    )


def _wire_value(rng, shared, depth=0):
    """A seeded value, mostly plain data; containers may alias entries of
    *shared*, and a rare opaque leaf or float key makes it invalid."""
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return _wire_leaf(rng)
    if roll < 0.4 and shared:
        return rng.choice(shared)
    if roll < 0.6:
        value = [_wire_value(rng, shared, depth + 1) for _ in range(rng.randint(0, 4))]
    elif roll < 0.75:
        return tuple(_wire_value(rng, shared, depth + 1) for _ in range(rng.randint(0, 3)))
    else:
        keys = ["k", 7, True, Level.LOW, Tag("key"), 1.5]
        value = {
            rng.choice(keys) if rng.random() < 0.2 else f"k{i}": _wire_value(rng, shared, depth + 1)
            for i in range(rng.randint(0, 4))
        }
    shared.append(value)
    return value


@pytest.mark.parametrize("seed", range(60))
def test_marshal_matches_reference_on_random_values(seed):
    rng = random.Random(seed)
    shared = []
    value = [_wire_value(rng, shared) for _ in range(rng.randint(1, 4))]
    value.append(rng.choice(shared) if shared else [1])
    assert_marshal_matches_reference(value)


def _nested(levels, *bottom):
    """*levels* lists nested in one another, the innermost holding *bottom*."""
    value = current = []
    for _ in range(levels):
        nested = []
        current.append(nested)
        current = nested
    current.extend(bottom)
    return value


def test_marshal_depth_limit_matches_reference():
    accepted, rejected = _nested(32), _nested(33)
    assert reference_marshal(accepted)[0] == "ok"
    assert reference_marshal(rejected)[0] == "error"
    # The innermost list sits at depth 31 or 32, so its items sit at the
    # limit or one past it.
    for value in (
        accepted,
        rejected,
        [_nested(31), 1],
        [_nested(32), 1],
        {"deep": _nested(32)},
        _nested(31, 1, "s"),
        _nested(32, 1),
        _nested(32, "s"),
        _nested(31, {"k": 1}),
        _nested(31, {1.5: 1}),
        _nested(31, ()),
        _nested(31, (1,)),
    ):
        assert_marshal_matches_reference(value)


def test_marshal_reports_the_first_invalid_value_like_the_reference():
    loop = [1]
    loop.append(loop)
    holder = {"x": 1}
    holder["self"] = holder
    cases = [
        {"a": [1, {"b": (2, [3, Opaque()])}]},
        [1, {1.5: "float key"}, Opaque()],
        {"ok": 1, (1, 2): "tuple key"},
        {None: 1},
        {True: [1], False: "b", "s": 1},
        [Level.LOW, Tag("t"), {Level.HIGH: Tag("v"), Tag("k"): Level.LOW}],
        [ObjRef(node="n", oid=1, iids=(IECHO.iid,), label="e"), GUID(5)],
        loop,
        holder,
        [_nested(40), Opaque()],
        [{1: Opaque()}, _nested(40)],
    ]
    for value in cases:
        assert_marshal_matches_reference(value)


def test_marshal_keeps_aliases_and_shares_immutable_tuples():
    shared = [1, [2]]
    frozen = (1, "x", (2.5, None))
    value = {"a": shared, "b": [shared, frozen], "c": (shared,), "d": frozen}
    copied, size = marshal(value)
    oracle = copy.deepcopy(value)
    assert copied["a"] is copied["b"][0] is copied["c"][0]
    assert copied["a"] is not shared
    assert copied["d"] is frozen and oracle["d"] is frozen
    assert size == estimate_wire_size(value)
    assert_marshal_matches_reference(value)
