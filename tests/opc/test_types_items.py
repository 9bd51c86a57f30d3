"""Unit tests for OPC value types and the item namespace."""

import pytest

from repro.errors import ItemNotFound, OpcError
from repro.opc.items import READ, READ_WRITE, WRITE, ItemDef, ItemNamespace
from repro.opc.types import (
    QUALITY_BY_VALUE,
    OpcValue,
    Quality,
    VT_BOOL,
    VT_BSTR,
    VT_I4,
    VT_R8,
    canonical_vt,
    quality_of,
)


# -- types -------------------------------------------------------------------


def test_canonical_vt_mapping():
    assert canonical_vt(True) == VT_BOOL
    assert canonical_vt(5) == VT_I4
    assert canonical_vt(1.5) == VT_R8
    assert canonical_vt("s") == VT_BSTR
    with pytest.raises(TypeError):
        canonical_vt([1])


def test_quality_major_status():
    assert Quality.GOOD.is_good
    assert Quality.GOOD_LOCAL_OVERRIDE.is_good
    assert not Quality.BAD_DEVICE_FAILURE.is_good
    assert not Quality.UNCERTAIN.is_good


def test_opcvalue_wire_roundtrip():
    value = OpcValue(3.14, Quality.UNCERTAIN_LAST_USABLE, 123.0)
    assert OpcValue.from_wire(value.as_wire()) == value


def test_quality_of_returns_the_enum_member_for_every_value():
    assert set(QUALITY_BY_VALUE.values()) == set(Quality)
    for quality in Quality:
        assert quality_of(quality.value) is Quality(quality.value)
        assert OpcValue.from_wire(OpcValue(1.0, quality, 2.0).as_wire()).quality is quality
    assert quality_of(Quality.BAD) is Quality(Quality.BAD)


@pytest.mark.parametrize("value", ["GOOD", "bad:unknown", "", None, ["good"]])
def test_quality_of_rejects_unknown_values_like_the_enum(value):
    with pytest.raises(ValueError) as enum_error:
        Quality(value)
    with pytest.raises(ValueError) as map_error:
        quality_of(value)
    assert str(map_error.value) == str(enum_error.value)
    with pytest.raises(ValueError):
        OpcValue.from_wire({"value": 1.0, "quality": value, "timestamp": 0.0})


# -- namespace ---------------------------------------------------------------------


def test_define_and_read_initial_quality():
    namespace = ItemNamespace()
    namespace.define(ItemDef("plant.temp", VT_R8))
    value = namespace.read("plant.temp")
    assert value.quality is Quality.BAD_NOT_CONNECTED


def test_define_simple_infers_vt_and_good_quality():
    namespace = ItemNamespace()
    item = namespace.define_simple("plant.temp", 20.0)
    assert item.vt == VT_R8
    assert namespace.read("plant.temp").quality is Quality.GOOD


def test_duplicate_definition_rejected():
    namespace = ItemNamespace()
    namespace.define_simple("a", 1)
    with pytest.raises(OpcError):
        namespace.define_simple("a", 2)


def test_unknown_item_faults():
    namespace = ItemNamespace()
    with pytest.raises(ItemNotFound):
        namespace.read("ghost")
    with pytest.raises(ItemNotFound):
        namespace.update("ghost", 1, Quality.GOOD, 0.0)


def test_update_sets_value_quality_timestamp():
    namespace = ItemNamespace()
    namespace.define_simple("a", 0)
    namespace.update("a", 7, Quality.UNCERTAIN, 55.0)
    value = namespace.read("a")
    assert (value.value, value.quality, value.timestamp) == (7, Quality.UNCERTAIN, 55.0)


def test_client_write_checks_access_rights():
    namespace = ItemNamespace()
    namespace.define_simple("ro", 1, access=READ)
    namespace.define_simple("rw", 1, access=READ_WRITE)
    with pytest.raises(OpcError):
        namespace.client_write("ro", 2)
    namespace.client_write("rw", 2)  # no handler installed: allowed no-op


def test_client_write_fires_device_hook():
    namespace = ItemNamespace()
    namespace.define_simple("setpoint", 0.0, access=READ_WRITE)
    writes = []
    namespace.on_write("setpoint", lambda item, value: writes.append((item, value)))
    namespace.client_write("setpoint", 42.0)
    assert writes == [("setpoint", 42.0)]


def test_browse_hierarchy():
    namespace = ItemNamespace()
    for item_id in ("plant.line1.temp", "plant.line1.flow", "plant.line2.temp", "site.power"):
        namespace.define_simple(item_id, 0.0)
    assert namespace.browse() == ["plant.", "site."]
    assert namespace.browse("plant") == ["plant.line1.", "plant.line2."]
    assert namespace.browse("plant.line1") == ["plant.line1.flow", "plant.line1.temp"]


def test_item_ids_sorted():
    namespace = ItemNamespace()
    namespace.define_simple("b", 0)
    namespace.define_simple("a", 0)
    assert namespace.item_ids() == ["a", "b"]
