"""Unit tests for the fault tolerance interface modules."""

import pytest

from repro.core.api import OfttApi
from repro.core.config import OfttConfig, replace_config
from repro.core.ftim import ClientFtim, ServerFtim
from repro.errors import CheckpointError
from repro.simnet.events import Timeout

from tests.core.util import make_pair_world


def started_pair(seed=0, config=None):
    world = make_pair_world(seed=seed, config=config)
    world.start()
    return world


def primary_bits(world):
    primary = world.primary
    app = world.pair.apps[primary]
    engine = world.pair.engines[primary]
    return primary, app, engine


def test_ftim_sends_heartbeats():
    world = started_pair()
    _primary, app, engine = primary_bits(world)
    world.run_for(2_000.0)
    assert app.api.ftim.heartbeats_sent >= 15
    # The engine's watch on the app took the beats: the last one is recent.
    assert engine.monitor.silence(app.name) <= engine.config.heartbeat_period
    assert not engine.monitor.is_suspected(app.name)


def test_client_ftim_checkpoints_periodically():
    world = started_pair()
    _primary, app, engine = primary_bits(world)
    world.run_for(5_500.0)
    # checkpoint_period defaults to 1000ms.
    assert 4 <= app.api.ftim.checkpoints_taken <= 7
    assert engine.local_store.latest("synthetic") is not None


def test_server_ftim_never_checkpoints():
    world = make_pair_world()
    world.start()
    primary = world.primary
    context = world.pair.contexts[primary]
    process = context.system.create_process("opc-srv")

    def idle_body(_thread):
        def loop():
            while True:
                yield Timeout(1_000.0)

        return loop()

    process.create_thread("main", body=idle_body, dynamic=False)
    process.start()
    ftim = ServerFtim(context.engine, "opc-srv", process)
    world.run_for(3_000.0)
    assert ftim.heartbeats_sent > 0
    assert ftim.TakeCheckpoint() is None
    assert ftim.GetStats()["kind"] == "server"


def test_selective_capture_restricts_image():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    ftim = app.api.ftim
    checkpoint = ftim.capture()
    assert checkpoint.selective
    # Only designated hot variables + ticks, not the cold payload.
    assert all(not name.startswith("cold_") for name in checkpoint.image["globals"])
    assert "ticks" in checkpoint.image["globals"]


def test_full_capture_includes_everything_and_stacks():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    ftim = app.api.ftim
    ftim.clear_selection()
    checkpoint = ftim.capture()
    assert not checkpoint.selective
    assert any(name.startswith("cold_") for name in checkpoint.image["globals"])
    assert any(region.startswith("stack:") for region in checkpoint.image)


def test_capture_includes_thread_contexts_from_both_paths():
    """Static threads come via EnumProcessThreads, dynamic ones via the
    IAT hook installed at OFTTInitialize."""
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    ftim = app.api.ftim
    # Create a dynamic thread through the (patched) Win32 API.
    ftim.kernel32.CreateThread("worker")
    checkpoint = ftim.capture()
    names = set(checkpoint.thread_contexts)
    assert "main" in names  # static
    assert "worker" in names  # dynamic, via IAT
    assert f"ftim:synthetic" in names


def test_capture_on_dead_process_fails():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    app.process.kill()
    with pytest.raises(CheckpointError):
        app.api.ftim.capture()


def test_checkpoint_sequences_monotone():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    first = app.api.ftim.TakeCheckpoint()
    second = app.api.ftim.TakeCheckpoint()
    assert second > first


def test_incremental_mode_shrinks_steady_state_checkpoints():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    ftim = app.api.ftim
    ftim.clear_selection()
    ftim.incremental = True
    first = ftim.capture()  # full baseline
    world.run_for(120.0)  # a tick happens; hot vars change
    second = ftim.capture()
    assert not first.incremental
    assert second.incremental
    assert second.size_bytes() < first.size_bytes() / 2


def test_engine_death_failstops_application():
    """§4 demo (d) building block: FTIM kills its app when the engine
    process dies, preventing an unmonitored primary."""
    world = started_pair()
    primary, app, engine = primary_bits(world)
    engine.process.kill()
    world.run_for(1_000.0)
    assert not app.process.alive
    assert app.api.ftim.engine_lost


def test_stats_surface():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    world.run_for(2_500.0)
    stats = app.api.ftim.GetStats()
    assert stats["kind"] == "client"
    assert stats["selective"]
    assert stats["heartbeats"] > 0
    assert stats["checkpoints"] >= 1


def test_captured_contexts_equal_get_thread_context():
    """Capture builds each context dict from the one GetThreadContext
    copy; it must equal that copy's as_dict() for static and IAT-tracked
    dynamic threads alike."""
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    ftim = app.api.ftim
    worker = ftim.kernel32.CreateThread("worker")
    worker.deref().context.registers = {"eax": 7, "ebx": 11}
    static = ftim.kernel32.EnumProcessThreads()
    expected = {h.deref().name: ftim.kernel32.GetThreadContext(h).as_dict() for h in static + [worker]}
    assert "main" in expected and "worker" in expected
    assert ftim.capture().thread_contexts == expected


def test_capture_makes_one_iat_call_per_live_thread():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    ftim = app.api.ftim
    ftim.kernel32.CreateThread("worker")
    dead = ftim.kernel32.CreateThread("gone")
    ftim.kernel32.call("TerminateThread", dead)
    counts = app.process.iat.call_counts
    before = dict(counts)
    contexts = ftim.capture().thread_contexts
    assert "worker" in contexts and "gone" not in contexts
    delta = {api: counts[api] - before.get(api, 0) for api in counts if counts[api] != before.get(api, 0)}
    assert delta == {"EnumProcessThreads": 1, "GetThreadContext": len(contexts)}


def test_captured_registers_are_private():
    world = started_pair()
    _primary, app, _engine = primary_bits(world)
    ftim = app.api.ftim
    threads = {thread.name: thread for thread in app.process.threads.values()}
    threads["main"].context.registers = {"eax": 1}
    first = ftim.capture().thread_contexts
    first["main"]["registers"]["eax"] = 99
    # An empty register set is copied as a fresh dict, never shared.
    first["ftim:synthetic"]["registers"]["ecx"] = 5
    assert threads["main"].context.registers == {"eax": 1}
    assert threads["ftim:synthetic"].context.registers == {}
    second = ftim.capture().thread_contexts
    assert second["main"]["registers"] == {"eax": 1}
    assert second["ftim:synthetic"]["registers"] == {}
