"""Unit tests for address spaces and the memory walkthrough."""

import copy
import enum
import operator
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


def _violation(call):
    with pytest.raises(AccessViolation) as caught:
        call()
    return str(caught.value), caught.value.__cause__, caught.value.__context__


def test_address_space_access_violations_are_those_of_the_checked_path():
    space = AddressSpace("app")
    space.map_region("locked", HEAP).write("v", 1)
    space.region("locked").protected = True
    assert _violation(lambda: space.read("v", region="ghost")) == ("no region ghost in app", None, None)
    assert _violation(lambda: space.write("v", 2, region="ghost")) == ("no region ghost in app", None, None)
    assert _violation(lambda: space.read("missing")) == ("read of unmapped globals:missing", None, None)
    assert _violation(lambda: space.write("v", 2, region="locked")) == (
        "write to protected region locked",
        None,
        None,
    )
    assert space.read("v", region="locked") == 1


def test_region_management():
    space = AddressSpace("app")
    space.map_region("heap1", HEAP)
    space.write("v", 1, region="heap1")
    assert space.read("v", region="heap1") == 1
    assert space.has_region("heap1")
    assert not space.has_region("heap2")
    with pytest.raises(AccessViolation):
        space.region("heap2")


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


def test_walkthrough_restore_roundtrip():
    source = AddressSpace("src")
    source.write("counter", 41)
    source.map_region("heap", HEAP).write("data", {"k": [1, 2]})
    image = source.walkthrough()

    # Restore the way an application's launch does: copy the image's
    # variables and write them into a fresh address space.
    target = AddressSpace("dst")
    for region_name, data in image.items():
        if not target.has_region(region_name):
            target.map_region(region_name, HEAP)
        for variable, value in copy_variables(data).items():
            target.write(variable, value, region=region_name)
    assert target.walkthrough() == image


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


class SubTuple(tuple):
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


def _containers(value, kinds, out, _path=()):
    """Every container of *kinds* under *value*, in traversal order (a
    container met again inside itself is listed but not re-entered)."""
    if isinstance(value, kinds):
        out.append(value)
    if _on_path(value, _path):
        return out
    items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
    for item in items:
        _containers(item, kinds, out, _path + (value,))
    return out


def mutables(value, out):
    """Every list and dict under *value*, in traversal order."""
    return _containers(value, (dict, list), out)


def tuples(value, out):
    """Every tuple under *value*, in traversal order."""
    return _containers(value, tuple, out)


def alias_pattern(value):
    """Which traversal positions hold the same container object."""
    seen = mutables(value, [])
    ids = [id(item) for item in seen]
    return [ids.index(ident) for ident in ids]


SCALAR_TYPES = (int, float, bool, type(None), str, bytes)


def is_record(value):
    """An exact tuple of exact scalars, which deepcopy shares."""
    return type(value) is tuple and all(type(item) in SCALAR_TYPES for item in value)


def assert_copy_matches_deepcopy(data, copied, oracle):
    """Typed equal, nothing mutable shared with *data*, same aliasing, and
    each tuple shared with *data* exactly where deepcopy shares it (every
    tuple of scalars among them)."""
    assert typed(copied) == typed(oracle)
    source_ids = {id(item) for item in mutables(data, [])}
    assert not any(id(item) in source_ids for item in mutables(copied, []))
    assert alias_pattern(copied) == alias_pattern(oracle) == alias_pattern(data)
    sources, twins, references = tuples(data, []), tuples(copied, []), tuples(oracle, [])
    assert len(sources) == len(twins) == len(references)
    for source, twin, reference in zip(sources, twins, references):
        assert (twin is source) == (reference is source)
        if is_record(source):
            assert twin is source


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
    container aliased from two variables and from inside a third.

    Three short scalar lists are each met again on later paths:
    ``point`` first inside a dict, ``sample`` first inside a list, and
    ``reading`` first as a variable of its own, then nested (the reverse
    order).

    Records — tuples of scalars, as the SCADA app keeps its trend points,
    alarm entries and readings — come as lists of them (``points``,
    ``entries``), an empty tuple, a list mixing them with scalar lists,
    a tuple holding a list and a tuple subclass inside lists, and one
    ``record`` met from two variables."""
    rng = random.Random(seed)
    point = [rng.random(), f"tag{rng.randint(0, 9)}", None]
    sample = [rng.randint(0, 9), b"raw", 2.5]
    reading = [rng.random(), "good"]
    shared = [rng.randint(0, 9), "shared", [rng.random()]]
    record = (rng.random(), "record", rng.randint(0, 99))
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
        ("points", [(rng.random(), rng.random()) for _ in range(rng.randint(1, 6))]),
        (
            "entries",
            [(rng.random(), f"tag{i}", rng.randint(0, 99)) for i in range(rng.randint(0, 4))]
            + [(float("nan"), b"raw", 0), (-0.0, "", True)],
        ),
        ("empty", ()),
        ("mixed", [(rng.random(), "t"), [rng.random(), "l"], (), [], (None,), record]),
        ("holding", [(rng.random(), "ok"), (rng.random(), [rng.randint(0, 9)])]),
        ("subclassed", [SubTuple((rng.random(), "sub")), (rng.random(), "plain")]),
        ("latest", {"a": record, "b": (rng.random(), "good", rng.random())}),
    ]
    rng.shuffle(entries)
    # Fixed around the shuffled middle, so the first meeting of each short
    # list is the same in dict order and in sorted-name order.
    first = [("short_a", {"pt": point}), ("short_b", [sample, 1.5]), ("short_c", reading)]
    again = [("short_d", [reading, point]), ("short_e", {"s": sample, "p": point, "r": reading})]
    return dict(first + entries + again)


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
    point, sample, reading = data["short_a"]["pt"], data["short_b"][0], data["short_c"]
    assert copied["short_a"]["pt"] is copied["short_d"][1] is copied["short_e"]["p"] is not point
    assert copied["short_b"][0] is copied["short_e"]["s"] is not sample
    assert copied["short_c"] is copied["short_d"][0] is copied["short_e"]["r"] is not reading
    # An all-immutable tuple is shared, one holding a list is rebuilt.
    assert copied["frozen"] is data["frozen"] and oracle["frozen"] is data["frozen"]
    assert copied["pairs"] is not data["pairs"]
    # Records are shared inside their copied lists; a tuple holding a list
    # and a tuple subclass are not, as in deepcopy.
    assert copied["points"] is not data["points"]
    assert all(map(operator.is_, copied["points"], data["points"]))
    assert all(map(operator.is_, copied["entries"], data["entries"]))
    assert copied["empty"] is data["empty"]
    assert copied["mixed"][-1] is copied["latest"]["a"] is data["latest"]["a"]
    assert copied["holding"][0] is data["holding"][0]
    assert copied["holding"][1] is not data["holding"][1] and oracle["holding"][1] is not data["holding"][1]
    assert copied["holding"][1][1] is not data["holding"][1][1]
    assert type(copied["subclassed"][0]) is SubTuple
    assert copied["subclassed"][0] is not data["subclassed"][0]
    assert oracle["subclassed"][0] is not data["subclassed"][0]
    assert copied["subclassed"][1] is data["subclassed"][1]


def test_copy_value_of_self_referencing_list_matches_deepcopy():
    loop = [1, "x"]
    loop.append(loop)
    data = {"loop": loop, "holder": {"again": loop}}
    oracle = copy.deepcopy(data)
    copied, size = copy_value(data, {})
    assert_copy_matches_deepcopy(data, copied, oracle)
    assert copied["loop"][2] is copied["loop"] is copied["holder"]["again"]
    assert copied["loop"] is not loop
    # A cycle has no estimate_size total: the back-reference costs 0,
    # and the second path to the loop costs the loop's size again.
    loop_size = 16 + 8 + 1 + 0
    assert size == 16 + len("loop") + loop_size + len("holder") + 16 + len("again") + loop_size


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
        (1, "x", (2.5, None)),
        {"flat": {"k": 1, "s": "str"}, 7: [1.5, "y", b"z"]},
    ],
    ids=[
        "intenum", "str-sub", "dict-sub", "list-sub", "set", "frozenset", "object", "tuple-key", "tuple",
        "shared-tuple", "mixed",
    ],
)
def test_estimate_size_prices_subclasses_and_other_types_unchanged(value):
    assert estimate_size(value) == reference_estimate_size(value)
    # The sized copy prices them the same and copies them as deepcopy does.
    copied, size = copy_value(value, {})
    assert size == reference_estimate_size(value)
    if type(value) is not object:  # a copied object() reprs differently
        assert typed(copied) == typed(copy.deepcopy(value))


# -- the sized copy: one walk gives deepcopy's copy and estimate_size's total ---------


_SHAPES = pytest.mark.parametrize("shape", [random_variables, nested_variables], ids=["random", "nested"])


@pytest.mark.parametrize("seed", range(20))
@_SHAPES
def test_sized_copy_matches_deepcopy_and_estimate(shape, seed):
    data = shape(seed)
    copied, size = copy_value(data, {})
    assert_copy_matches_deepcopy(data, copied, copy.deepcopy(data))
    assert size == reference_estimate_size(data)
    for value in data.values():
        assert copy_value(value, {})[1] == reference_estimate_size(value)


@pytest.mark.parametrize("seed", range(20))
@_SHAPES
def test_copy_variables_prices_each_variable(shape, seed):
    data = shape(seed)
    sizes = {}
    copied = copy_variables(data, sizes=sizes)
    assert list(sizes) == list(copied)
    for name, value in data.items():
        assert sizes[name] == reference_estimate_size(name) + reference_estimate_size(value)
    assert 16 + sum(sizes.values()) == reference_estimate_size(copied) == reference_estimate_size(data)
    names = sorted(data)[::2] + ["missing"]
    subset_sizes = {}
    subset = copy_variables(data, names, subset_sizes)
    assert list(subset_sizes) == list(subset) == sorted(set(names) & set(data))
    assert 16 + sum(subset_sizes.values()) == reference_estimate_size(subset)


def test_aliased_container_is_copied_once_and_priced_twice():
    shared = [1, "x", [2.5, None]]
    # deepcopy copies it first (inside the subclass), then the walk meets it.
    data = {"sub": SubList([shared]), "a": shared, "b": shared, "c": shared}
    copied, size = copy_value(data, {})
    assert copied["a"] is copied["b"] is copied["c"] is copied["sub"][0]
    assert copied["a"] is not shared
    assert size == reference_estimate_size(data)
    shared_size = reference_estimate_size(shared)
    assert size == 16 + 4 * shared_size + 16 + len("a") + len("b") + len("sub") + len("c")
    sizes = {}
    copy_variables(data, sizes=sizes)
    assert sizes["a"] == sizes["b"] == sizes["c"] == 1 + shared_size
