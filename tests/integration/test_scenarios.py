"""Integration tests: the paper's reference configurations (F1a/F1b/F3).

The registry's F1, F2 and F3 results are checked by ``CHECKS`` in
``test_experiments.py``; these tests cover what those runs do not.
"""

import hashlib
import json

from repro.core.status import ComponentStatus
from repro.harness.scenario import build_demo, build_integrated, build_remote_monitoring
from repro.opc.client import DataCallbackSink
from repro.opc.types import Quality


def test_f1b_opc_server_rebuilds_cache_from_devices():
    """Server FTIM is stateless: after failover the new server's cache is
    rebuilt live from the PLC, not restored from a checkpoint."""
    scenario = build_integrated(seed=22)
    scenario.start()
    scenario.run_for(15_000.0)
    primary = scenario.pair.primary_node()
    scenario.systems[primary].power_off()
    scenario.run_for(15_000.0)
    new_primary = scenario.pair.primary_node()
    server_app, _client_app = scenario.pair.all_apps[new_primary]
    status = server_app.server.GetStatus()
    assert status["state"] == "running"
    assert status["update_count"] > 0
    # The new server is a fresh instance (no checkpoint restore happened).
    assert server_app.api.ftim.GetStats()["checkpoints"] == 0


def test_demo_monitor_display_tracks_roles():
    demo = build_demo(seed=25)
    demo.start()
    demo.run_for(10_000.0)
    rendered = demo.monitor.render()
    assert "node1" in rendered and "node2" in rendered
    assert demo.monitor.current_primary() == demo.pair.primary_node()


def test_f1a_ondatachange_batches_at_the_remote_sink_are_pinned(monkeypatch):
    """Every OnDataChange batch the SCADA pair's DCOM sink receives over a
    short run with a station failover, as the sink sees its arguments,
    digested; the digest was taken when receipt still copied a request."""
    received = []
    original = DataCallbackSink.OnDataChange

    def recording(sink, group_name, batch):
        received.append([scenario.kernel.now, group_name, batch])
        return original(sink, group_name, batch)

    monkeypatch.setattr(DataCallbackSink, "OnDataChange", recording)
    scenario = build_remote_monitoring(seed=4)
    scenario.start()
    scenario.run_for(4_000.0)
    scenario.systems[scenario.pair.primary_node()].power_off()
    scenario.run_for(4_000.0)
    assert (len(received), sum(len(batch) for _now, _group, batch in received)) == (35, 140)
    blob = json.dumps(received, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "0ae77657aff2549228859e87c09e4b31c2d4256bde9aa1e736ab3978e1af1e26"
    )


def test_f1a_fieldbus_failure_degrades_quality_not_availability():
    """Fieldbus loss (plant-side fault) must not trigger a PC failover —
    the OPC layer reports BAD quality instead."""
    scenario = build_remote_monitoring(seed=26)
    scenario.start()
    scenario.run_for(10_000.0)
    primary_before = scenario.pair.primary_node()
    scenario.fieldbuses["devicenet0"].fail()
    scenario.run_for(5_000.0)
    assert scenario.pair.primary_node() == primary_before  # no failover
    quality = scenario.opc_server.namespace.read("plc1.temp").quality
    assert quality is Quality.BAD_DEVICE_FAILURE
    scenario.fieldbuses["devicenet0"].repair()
    scenario.run_for(5_000.0)
    assert scenario.opc_server.namespace.read("plc1.temp").quality.is_good
