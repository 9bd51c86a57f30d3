"""Unit tests for NT processes and threads."""

import pytest

from repro.errors import NTError, ProcessDead, ThreadDead
from repro.nt.process import ProcessState
from repro.simnet.events import Timeout

from tests.conftest import make_world


def make_machine():
    world = make_world()
    system = world.add_machine("host")
    return world, system


def ticker(counter):
    def body(thread):
        def loop():
            while True:
                yield Timeout(10.0)
                counter.append(thread.process.system.kernel.now)

        return loop()

    return body


def test_process_lifecycle_and_thread_start():
    world, system = make_machine()
    ticks = []
    process = system.create_process("app")
    process.create_thread("main", body=ticker(ticks), dynamic=False)
    assert process.state is ProcessState.CREATED
    process.start()
    world.run(35.0)
    assert len(ticks) == 3


def test_create_thread_on_running_process_starts_immediately():
    world, system = make_machine()
    ticks = []
    process = system.create_process("app")
    process.create_thread("idle", dynamic=False)
    process.start()
    process.create_thread("late", body=ticker(ticks), dynamic=True)
    world.run(25.0)
    assert len(ticks) == 2


def test_double_thread_start_does_not_fork_body():
    world, system = make_machine()
    ticks = []
    process = system.create_process("app")
    thread = process.create_thread("main", body=ticker(ticks), dynamic=False)
    process.start()
    thread.start()  # second start must be a no-op
    world.run(50.0)
    assert len(ticks) == 5  # not 10


def test_process_exits_when_last_thread_finishes():
    world, system = make_machine()

    def body(thread):
        def run():
            yield Timeout(5.0)

        return run()

    process = system.create_process("app")
    process.create_thread("main", body=body, dynamic=False)
    process.start()
    world.run(10.0)
    assert process.state is ProcessState.EXITED
    assert process.exit_code == 0


def test_kill_terminates_threads_and_unbinds_ports():
    world, system = make_machine()
    ticks = []
    process = system.create_process("app")
    process.create_thread("main", body=ticker(ticks), dynamic=False)
    process.start()
    process.bind_port("svc", lambda m: None)
    world.run(25.0)
    process.kill()
    assert process.state is ProcessState.KILLED
    assert system.node.handler_for("svc") is None
    world.run(100.0)
    assert len(ticks) == 2


def test_exit_hooks_fire_once():
    world, system = make_machine()
    exits = []
    process = system.create_process("app")
    process.create_thread("main", dynamic=False)
    process.on_exit.append(lambda p: exits.append(p.state))
    process.start()
    process.kill()
    process.kill()
    assert exits == [ProcessState.KILLED]


def test_hang_keeps_memory_but_stops_threads():
    world, system = make_machine()
    ticks = []
    process = system.create_process("app")
    process.address_space.write("value", 7)
    process.create_thread("main", body=ticker(ticks), dynamic=False)
    process.start()
    world.run(25.0)
    process.hang()
    assert process.state is ProcessState.HUNG
    assert process.alive  # the kernel object still exists
    world.run(100.0)
    assert len(ticks) == 2  # no progress while hung
    assert process.address_space.read("value") == 7


def test_operations_on_dead_process_fail():
    world, system = make_machine()
    process = system.create_process("app")
    process.create_thread("main", dynamic=False)
    process.start()
    process.kill()
    with pytest.raises(ProcessDead):
        process.create_thread("late")
    with pytest.raises(ProcessDead):
        process.bind_port("svc", lambda m: None)


def test_thread_context_advances_as_body_runs():
    world, system = make_machine()
    ticks = []
    process = system.create_process("app")
    thread = process.create_thread("main", body=ticker(ticks), dynamic=False)
    initial_pc = thread.context.program_counter
    process.start()
    world.run(50.0)
    assert thread.context.program_counter > initial_pc


def test_capture_context_on_dead_thread_faults():
    world, system = make_machine()
    process = system.create_process("app")
    thread = process.create_thread("main", dynamic=False)
    process.start()
    thread.terminate()
    with pytest.raises(ThreadDead):
        thread.capture_context()
