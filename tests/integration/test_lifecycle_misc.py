"""Integration tests: crash semantics wiring, determinism, devices."""

from repro.harness.scenario import build_demo
from repro.msq.manager import QueueManager
from repro.nt.thread import ThreadContext

from tests.conftest import make_world
from tests.core.util import make_pair_world


def test_bluescreen_purges_express_messages_end_to_end():
    """The OS crash hook reaches the MSMQ service: express messages die
    with the bluescreen, persistent ones survive the reboot."""
    world = make_world()
    sender_sys = world.add_machine("sender")
    receiver_sys = world.add_machine("receiver")
    sender = QueueManager(world.kernel, world.network, world.network.nodes["sender"])
    receiver = QueueManager(world.kernel, world.network, world.network.nodes["receiver"])
    receiver.attach_to_system(receiver_sys)
    queue = receiver.create_queue("inbox")
    sender.send("receiver", "inbox", "durable", persistent=True)
    sender.send("receiver", "inbox", "volatile", persistent=False)
    world.run_for(200.0)
    assert len(queue) == 2

    receiver_sys.bluescreen()
    eta = receiver_sys.reboot()
    world.run(eta + 100.0)
    bodies = []
    while True:
        message = queue.receive()
        if message is None:
            break
        bodies.append(message.body)
    assert bodies == ["durable"]
    assert receiver.service_up


def test_msq_service_pauses_while_node_down():
    world = make_world()
    sender_sys = world.add_machine("sender")
    sender = QueueManager(world.kernel, world.network, world.network.nodes["sender"])
    sender.attach_to_system(sender_sys)
    sender_sys.power_off()
    assert not sender.service_up
    eta = sender_sys.reboot()
    world.run(eta + 100.0)
    assert sender.service_up


def test_demo_scenario_is_deterministic_per_seed():
    results = []
    for _run in range(2):
        demo = build_demo(seed=99)
        demo.start()
        demo.run_for(30_000.0)
        primary = demo.pair.primary_node()
        demo.systems[primary].power_off()
        demo.run_for(10_000.0)
        app = demo.primary_app()
        results.append(
            (
                demo.pair.primary_node(),
                demo.history.event_count,
                app.events_processed(),
                tuple(sorted(app.histogram().items())),
            )
        )
    assert results[0] == results[1]


def test_different_seeds_differ():
    outcomes = set()
    for seed in (1, 2, 3):
        demo = build_demo(seed=seed)
        demo.start()
        demo.run_for(30_000.0)
        outcomes.add(demo.history.event_count)
    assert len(outcomes) > 1


def test_thread_context_dict_roundtrip():
    context = ThreadContext(program_counter=0x401234, stack_pointer=0x12F000, registers={"eax": 7})
    # as_dict's keys are the context's fields, so the constructor inverts it.
    restored = ThreadContext(**context.as_dict())
    assert restored.program_counter == context.program_counter
    assert restored.registers == {"eax": 7}
    # Snapshot independence.
    snapshot = context.snapshot()
    snapshot.registers["eax"] = 0
    assert context.registers["eax"] == 7
