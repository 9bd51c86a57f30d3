"""Unit tests for address spaces and the memory walkthrough."""

import copy
import enum
import random

import pytest

from repro.errors import AccessViolation
from repro.nt.memory import (
    GLOBAL,
    HEAP,
    STACK,
    AddressSpace,
    MemoryRegion,
    copy_value,
    copy_variables,
    estimate_size,
)


def test_globals_region_always_present():
    space = AddressSpace("app")
    assert space.has_region("globals")
    assert space.globals.kind == GLOBAL


def test_write_read_roundtrip():
    space = AddressSpace("app")
    space.write("x", {"nested": [1, 2, 3]})
    assert space.read("x") == {"nested": [1, 2, 3]}


def test_read_unmapped_variable_faults():
    space = AddressSpace("app")
    with pytest.raises(AccessViolation):
        space.read("missing")


def test_region_management():
    space = AddressSpace("app")
    space.map_region("heap1", HEAP)
    space.write("v", 1, region="heap1")
    assert space.read("v", region="heap1") == 1
    space.unmap_region("heap1")
    with pytest.raises(AccessViolation):
        space.region("heap1")
    with pytest.raises(AccessViolation):
        space.unmap_region("heap1")


def test_duplicate_region_rejected():
    space = AddressSpace("app")
    space.map_region("r")
    with pytest.raises(AccessViolation):
        space.map_region("r")


def test_unknown_region_kind_rejected():
    with pytest.raises(AccessViolation):
        MemoryRegion("r", kind="exotic")


def test_protected_region_rejects_writes():
    region = MemoryRegion("r")
    region.write("a", 1)
    region.protected = True
    with pytest.raises(AccessViolation):
        region.write("a", 2)
    with pytest.raises(AccessViolation):
        region.delete("a")
    assert region.read("a") == 1


def test_snapshot_is_deep_copy():
    region = MemoryRegion("r")
    region.write("list", [1, 2])
    snapshot = region.snapshot()
    snapshot["list"].append(3)
    assert region.read("list") == [1, 2]


def test_restore_replaces_contents():
    region = MemoryRegion("r")
    region.write("old", 1)
    region.restore({"new": 2})
    assert "old" not in region
    assert region.read("new") == 2


def test_walkthrough_covers_all_kinds_by_default():
    space = AddressSpace("app")
    space.write("g", 1)
    space.map_region("h", HEAP).write("hv", 2)
    space.map_region("s", STACK).write("sv", 3)
    image = space.walkthrough()
    assert image == {"globals": {"g": 1}, "h": {"hv": 2}, "s": {"sv": 3}}


def test_walkthrough_kind_filter():
    space = AddressSpace("app")
    space.write("g", 1)
    space.map_region("s", STACK).write("sv", 3)
    image = space.walkthrough(kinds=[STACK])
    assert image == {"s": {"sv": 3}}


def test_restore_walkthrough_creates_missing_regions():
    space = AddressSpace("app")
    space.restore_walkthrough({"globals": {"a": 1}, "extra": {"b": 2}})
    assert space.read("a") == 1
    assert space.read("b", region="extra") == 2


def test_walkthrough_restore_roundtrip():
    source = AddressSpace("src")
    source.write("counter", 41)
    source.map_region("heap", HEAP).write("data", {"k": [1, 2]})
    image = source.walkthrough()

    target = AddressSpace("dst")
    target.restore_walkthrough(image)
    assert target.walkthrough() == image


def test_size_estimate_grows_with_content():
    space = AddressSpace("app")
    empty = space.size_bytes()
    space.write("blob", "x" * 10_000)
    assert space.size_bytes() > empty + 9_000


def test_region_variables_sorted():
    region = MemoryRegion("r")
    for name in ("zeta", "alpha", "mid"):
        region.write(name, 0)
    assert region.variables() == ["alpha", "mid", "zeta"]


# -- copy_variables against a deepcopy oracle -------------------------------------


class SubDict(dict):
    pass


class SubList(list):
    pass


class Level(enum.IntEnum):
    LOW = 1


def _scalar(rng):
    return rng.choice(
        [rng.randint(-9, 9), rng.random(), float("nan"), -0.0, True, None, f"s{rng.randint(0, 9)}", b"raw"]
    )


def _value(rng, depth=0):
    """A scalar, a flat dict/list, or a nested/tuple/subclass container."""
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        return _scalar(rng)
    if roll < 0.45:
        return {f"k{i}": _scalar(rng) for i in range(rng.randint(0, 4))}
    if roll < 0.6:
        return [_scalar(rng) for _ in range(rng.randint(0, 4))]
    if roll < 0.7:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if roll < 0.8:
        return SubDict({f"k{i}": _value(rng, depth + 1) for i in range(rng.randint(0, 3))})
    if roll < 0.9:
        return SubList(_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    return {"nested": [_value(rng, depth + 1)], "n": _value(rng, depth + 1)}


def random_variables(seed):
    """A seeded variable dict; three variables alias one flat list."""
    rng = random.Random(seed)
    shared = [1, 2.5, "x"]
    entries = [(f"v{i:02d}", _value(rng)) for i in range(rng.randint(1, 10))]
    entries += [("alias_a", shared), ("alias_b", shared), ("alias_nested", {"inner": shared})]
    rng.shuffle(entries)  # the aliased list is met first by either copy path
    return dict(entries)


def _on_path(value, path):
    return any(value is seen for seen in path)


def typed(value, _path=()):
    """Structure with exact types and scalar reprs (tells NaN and -0.0 apart).

    A container met again inside itself renders as a back-reference to
    its depth on the path, so cyclic values compare too.
    """
    if isinstance(value, (dict, list, tuple)):
        if _on_path(value, _path):
            return ("cycle", [index for index, seen in enumerate(_path) if seen is value])
        _path += (value,)
    if isinstance(value, dict):
        return (type(value), [(typed(key, _path), typed(item, _path)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(item, _path) for item in value])
    return (type(value), repr(value))


def mutables(value, out, _path=()):
    """Every mutable container under *value*, in traversal order (a
    container met again inside itself is listed but not re-entered)."""
    if isinstance(value, (dict, list)):
        out.append(value)
    if _on_path(value, _path):
        return out
    items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
    for item in items:
        mutables(item, out, _path + (value,))
    return out


def alias_pattern(value):
    """Which traversal positions hold the same container object."""
    seen = mutables(value, [])
    ids = [id(item) for item in seen]
    return [ids.index(ident) for ident in ids]


def assert_copy_matches_deepcopy(data, copied, oracle):
    """Typed equal, nothing mutable shared with *data*, same aliasing."""
    assert typed(copied) == typed(oracle)
    source_ids = {id(item) for item in mutables(data, [])}
    assert not any(id(item) in source_ids for item in mutables(copied, []))
    assert alias_pattern(copied) == alias_pattern(oracle) == alias_pattern(data)


@pytest.mark.parametrize("seed", range(40))
def test_copy_variables_matches_deepcopy(seed):
    data = random_variables(seed)
    oracle = copy.deepcopy(data)
    copied = copy_variables(data)
    assert copied == oracle
    assert list(copied) == list(data)
    assert_copy_matches_deepcopy(data, copied, oracle)
    assert copied["alias_a"] is copied["alias_b"] is copied["alias_nested"]["inner"]


@pytest.mark.parametrize("seed", range(20))
def test_copy_variables_of_named_subset_matches_deepcopy(seed):
    data = random_variables(seed)
    rng = random.Random(seed)
    names = rng.sample(sorted(data), k=len(data) // 2) + ["alias_a", "alias_nested", "missing"]
    oracle = copy.deepcopy(data)
    copied = copy_variables(data, names)
    assert list(copied) == sorted(name for name in set(names) if name in data)
    assert typed(copied) == typed({name: oracle[name] for name in copied})
    assert copied["alias_a"] is copied["alias_nested"]["inner"]
    assert copied["alias_a"] is not data["alias_a"]


def nested_variables(seed):
    """Seeded variables shaped like SCADA and Call Track state: lists of
    flat lists, dicts of lists of lists, tuples holding lists, and one
    container aliased from two variables and from inside a third."""
    rng = random.Random(seed)
    shared = [rng.randint(0, 9), "shared", [rng.random()]]
    entries = [
        ("alarm_log", [[rng.random(), f"tag{i}", rng.randint(0, 99)] for i in range(rng.randint(0, 6))]),
        (
            "trend",
            {f"tag{i}": [[rng.random(), rng.random()] for _ in range(rng.randint(0, 4))] for i in range(3)},
        ),
        ("pairs", tuple([rng.randint(0, 9), _scalar(rng)] for _ in range(rng.randint(1, 3)))),
        ("frozen", (1, "x", (2.5, None, b"raw"))),
        ("alias_a", shared),
        ("alias_b", shared),
        ("holder", {"inner": [shared, (shared,)], "n": _scalar(rng)}),
    ]
    rng.shuffle(entries)
    return dict(entries)


@pytest.mark.parametrize("seed", range(20))
def test_copy_variables_of_nested_values_matches_deepcopy(seed):
    data = nested_variables(seed)
    oracle = copy.deepcopy(data)
    copied = copy_variables(data)
    assert copied == oracle
    assert list(copied) == list(data)
    assert_copy_matches_deepcopy(data, copied, oracle)
    assert copied["alias_a"] is copied["alias_b"] is copied["holder"]["inner"][0]
    assert copied["holder"]["inner"][1][0] is copied["alias_a"]
    # An all-immutable tuple is shared, one holding a list is rebuilt.
    assert copied["frozen"] is data["frozen"] and oracle["frozen"] is data["frozen"]
    assert copied["pairs"] is not data["pairs"]


def test_copy_value_of_self_referencing_list_matches_deepcopy():
    loop = [1, "x"]
    loop.append(loop)
    data = {"loop": loop, "holder": {"again": loop}}
    oracle = copy.deepcopy(data)
    copied = copy_value(data, {})
    assert_copy_matches_deepcopy(data, copied, oracle)
    assert copied["loop"][2] is copied["loop"] is copied["holder"]["again"]
    assert copied["loop"] is not loop


def test_snapshot_of_names_copies_only_present_names_sorted():
    region = MemoryRegion("r")
    for name in ("zeta", "alpha", "mid"):
        region.write(name, [name])
    snapshot = region.snapshot(["zeta", "ghost", "alpha"])
    assert list(snapshot) == ["alpha", "zeta"]
    snapshot["alpha"].append("changed")
    assert region.read("alpha") == ["alpha"]


def test_copy_variables_deep_copies_subclasses_and_nested_values():
    data = {"sub": SubList([1]), "nested": {"k": [1]}, "level": Level.LOW}
    copied = copy_variables(data)
    assert type(copied["sub"]) is SubList and copied["sub"] is not data["sub"]
    assert copied["nested"]["k"] is not data["nested"]["k"]
    assert copied["level"] is Level.LOW


# -- estimate_size against the isinstance chain it replaced -------------------------


def reference_estimate_size(value):
    """The size estimator as it was before exact-type dispatch."""
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return 16 + sum(reference_estimate_size(k) + reference_estimate_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set)):
        return 16 + sum(reference_estimate_size(item) for item in value)
    return 64


class SubStr(str):
    pass


@pytest.mark.parametrize("seed", range(40))
def test_estimate_size_matches_isinstance_chain(seed):
    data = random_variables(seed)
    assert estimate_size(data) == reference_estimate_size(data)
    for value in data.values():
        assert estimate_size(value) == reference_estimate_size(value)


@pytest.mark.parametrize(
    "value",
    [
        Level.LOW,
        SubStr("abc"),
        SubDict({"a": [1, "xy"]}),
        SubList([b"ab", None]),
        {1, 2.0, "s"},
        frozenset({1}),
        object(),
        {("t", 1): {"x": [SubStr("q")]}},
        (1, [2, {"k": Level.LOW}]),
    ],
    ids=["intenum", "str-sub", "dict-sub", "list-sub", "set", "frozenset", "object", "tuple-key", "tuple"],
)
def test_estimate_size_prices_subclasses_and_other_types_unchanged(value):
    assert estimate_size(value) == reference_estimate_size(value)


def test_region_size_is_the_sum_of_estimates():
    region = MemoryRegion("r")
    data = random_variables(7)
    region.restore(data)
    expected = sum(reference_estimate_size(value) for value in data.values()) + 16 * len(data)
    assert region.size_bytes() == expected
