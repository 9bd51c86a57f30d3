"""Edge-case tests: lost handoffs, demotion windows, checkpoint info,
the error hierarchy, and partition scheduling."""

import pytest

import repro.errors as errors
from repro.core.engine import ENGINE_PORT
from repro.core.roles import Role

from tests.core.util import make_pair_world


# -- dual-backup self-healing ---------------------------------------------------


def test_lost_takeover_message_resolves_via_dual_backup_rule():
    """Deliberate switchover whose takeover message is lost: both nodes
    end up BACKUP; the tie-break winner must promote itself."""
    world = make_pair_world(seed=71)
    world.start()
    world.run_for(3_000.0)
    primary = world.primary
    backup = world.backup
    engine = world.pair.engines[primary]

    # Drop exactly the takeover message by unbinding the peer port for an
    # instant around the handoff.
    peer_node = world.network.nodes[backup]
    saved_handler = peer_node.handler_for(ENGINE_PORT)

    def drop_takeover(message):
        if message.payload.get("kind") == "takeover":
            return  # lost in transit
        saved_handler(message)

    peer_node.bind(ENGINE_PORT, drop_takeover)
    engine.request_switchover("handoff that will be lost")
    world.run_for(200.0)
    peer_node.bind(ENGINE_PORT, saved_handler)

    # Both are backup now...
    roles = {world.pair.engines[n].role for n in world.pair.node_names}
    assert roles == {Role.BACKUP}
    # ...until the dual-backup streak rule promotes the tie-break winner.
    world.run_for(5_000.0)
    assert world.pair.is_stable()
    assert world.primary is not None


# -- checkpoint info / acks --------------------------------------------------------


def test_checkpoint_info_tracks_local_peer_and_acks():
    world = make_pair_world(seed=72)
    world.start()
    world.run_for(5_000.0)
    primary_engine = world.pair.engines[world.primary]
    backup_engine = world.pair.engines[world.backup]
    info = primary_engine.GetCheckpointInfo()
    assert info["local_latest"] >= 3
    assert info["acked_sequence"] >= info["local_latest"] - 1
    peer_info = backup_engine.GetCheckpointInfo()
    assert peer_info["peer_latest"] >= 3
    # The backup mirrors what the primary produced.
    assert abs(peer_info["peer_latest"] - info["local_latest"]) <= 1


def test_checkpoints_stop_flowing_when_backup_dies_and_resume_on_rejoin():
    world = make_pair_world(seed=73)
    world.start()
    world.run_for(3_000.0)
    backup = world.backup
    primary_engine = world.pair.engines[world.primary]
    world.systems[backup].power_off()
    world.run_for(2_000.0)
    acked_at_outage = primary_engine.acked_sequence
    world.run_for(3_000.0)
    # No acks while the backup is gone (local sequence keeps rising).
    assert primary_engine.acked_sequence == acked_at_outage
    assert primary_engine.local_store.latest_sequence("synthetic") > acked_at_outage
    world.systems[backup].reboot()
    world.run_for(2_000.0)
    world.pair.reinstall_node(backup)
    world.run_for(5_000.0)
    assert primary_engine.acked_sequence > acked_at_outage  # flow resumed


# -- diverter demotion window --------------------------------------------------------

def test_diverter_buffers_during_demotion_window():
    world = make_pair_world(seed=74, subscriber_nodes=["ext"])
    world.add_machine("ext")
    client = world.add_client("ext")
    world.start()
    world.run_for(2_000.0)
    assert client.primary is not None
    # Simulate hearing a demotion notice with no new primary yet.
    client._on_notice(
        type("M", (), {"payload": {"kind": "role-change", "node": client.primary, "role": "backup"}})()
    )
    assert client.primary is None
    sent = client.sent_count
    client.send({"during": "gap"})
    assert client.sent_count == sent  # buffered
    world.run_for(3_000.0)  # the real primary's next broadcast arrives
    assert client.primary is not None
    assert client.sent_count == sent + 1


# -- error hierarchy --------------------------------------------------------------------


def test_every_layer_error_derives_from_reproerror():
    layer_errors = [
        errors.SimError,
        errors.NTError,
        errors.ComError,
        errors.RpcError,
        errors.MsqError,
        errors.OpcError,
        errors.OfttError,
        errors.CheckpointError,
        errors.RoleError,
        errors.WatchdogError,
        errors.FaultInjectionError,
    ]
    for error_type in layer_errors:
        assert issubclass(error_type, errors.ReproError)
    assert issubclass(errors.RpcError, errors.ComError)
    assert issubclass(errors.QueueNotFound, errors.MsqError)
    assert issubclass(errors.NotInitialized, errors.OfttError)


def test_com_error_formats_hresult():
    error = errors.ComError(0x80004005)
    assert "80004005" in str(error)
    assert error.hresult == 0x80004005


# -- partition scheduling -----------------------------------------------------------------


def test_scheduled_partition_and_heal():
    world = make_pair_world(seed=75)
    world.start()
    world.run_for(1_000.0)
    world.kernel.schedule(1_000.0, world.partitions.split, "lan0", ["alpha"], ["beta"])
    world.kernel.schedule(3_000.0, world.partitions.heal, "lan0")
    world.run_for(1_500.0)
    assert world.network.usable_path("alpha", "beta") is None
    world.run_for(2_000.0)
    assert world.network.usable_path("alpha", "beta") is not None
    events = [record.event for record in world.trace.select(category="net", component="lan0")]
    assert [event for event in events if event.startswith("partition")] == ["partition", "partition-healed"]
