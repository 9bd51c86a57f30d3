"""Unit tests for the Win32 API surface and the IAT interception trick."""

import pytest

from repro.errors import NTError, ThreadDead
from repro.nt.kernel32 import Kernel32
from repro.nt.perfmon import NTDLL_STUB_ADDRESS

from tests.conftest import make_world


def make_process():
    world = make_world()
    system = world.add_machine("host")
    process = system.create_process("app")
    kernel32 = Kernel32(process)
    return world, system, process, kernel32


def test_create_thread_returns_handle_to_dynamic_thread():
    world, system, process, kernel32 = make_process()
    process.create_thread("static", dynamic=False)
    process.start()
    handle = kernel32.CreateThread("worker")
    assert handle.deref().dynamic
    assert handle.deref().name == "worker"


def test_enum_process_threads_hides_dynamic_threads():
    """The paper's §3.1 complaint: standard APIs do not expose
    dynamically created threads."""
    world, system, process, kernel32 = make_process()
    static = process.create_thread("static", dynamic=False)
    process.start()
    kernel32.CreateThread("dynamic-1")
    kernel32.CreateThread("dynamic-2")
    visible = {handle.tid for handle in kernel32.EnumProcessThreads()}
    assert visible == {static.tid}


def test_open_thread_refuses_dynamic_threads():
    world, system, process, kernel32 = make_process()
    process.create_thread("static", dynamic=False)
    process.start()
    handle = kernel32.CreateThread("dynamic")
    with pytest.raises(NTError, match="IAT hook"):
        kernel32.call("OpenThread", handle.tid)


def test_iat_tracker_observes_dynamic_creations():
    """The OFTT mechanism: patch CreateThread, collect handles."""
    world, system, process, kernel32 = make_process()
    process.create_thread("static", dynamic=False)
    process.start()
    tracked = kernel32.install_thread_tracker()
    kernel32.CreateThread("after-patch-1")
    kernel32.CreateThread("after-patch-2")
    assert [handle.deref().name for handle in tracked] == ["after-patch-1", "after-patch-2"]
    # Contexts of tracked dynamic threads are capturable.
    context = kernel32.GetThreadContext(tracked[0])
    assert context.program_counter > 0


def test_iat_tracker_misses_threads_created_before_patch():
    world, system, process, kernel32 = make_process()
    process.create_thread("static", dynamic=False)
    process.start()
    kernel32.CreateThread("before-patch")
    tracked = kernel32.install_thread_tracker()
    assert tracked == []


def test_get_set_thread_context_roundtrip():
    world, system, process, kernel32 = make_process()
    process.create_thread("static", dynamic=False)
    process.start()
    handle = kernel32.EnumProcessThreads()[0]
    context = kernel32.GetThreadContext(handle)
    context.registers["eax"] = 0xDEAD
    kernel32.call("SetThreadContext", handle, context)
    assert kernel32.GetThreadContext(handle).registers["eax"] == 0xDEAD


def test_context_snapshot_is_independent():
    world, system, process, kernel32 = make_process()
    thread = process.create_thread("static", dynamic=False)
    process.start()
    handle = kernel32.EnumProcessThreads()[0]
    context = kernel32.GetThreadContext(handle)
    context.program_counter = 0
    assert thread.context.program_counter != 0


def test_closed_handle_faults():
    world, system, process, kernel32 = make_process()
    process.create_thread("static", dynamic=False)
    process.start()
    handle = kernel32.CreateThread("worker")
    kernel32.call("CloseHandle", handle)
    with pytest.raises(ThreadDead):
        kernel32.GetThreadContext(handle)


def test_call_through_unresolved_import_fails():
    world, system, process, kernel32 = make_process()
    with pytest.raises(NTError):
        process.iat.call("NotAnApi")


def test_patch_unknown_import_fails():
    world, system, process, kernel32 = make_process()
    with pytest.raises(NTError):
        process.iat.patch("NotAnApi", lambda *a: None)


def test_call_counts_tracked():
    world, system, process, kernel32 = make_process()
    process.start()
    kernel32.call("GetCurrentProcessId")
    kernel32.call("GetCurrentProcessId")
    assert process.iat.call_counts["GetCurrentProcessId"] == 2


def test_perfmon_thread_start_address_is_misleading():
    """§3.1: 'the thread start address in the performance counter is
    always the pointer to a routine in NTDLL.DLL'."""
    world, system, process, kernel32 = make_process()
    process.create_thread("static", dynamic=False)
    process.start()
    handle = kernel32.CreateThread("dynamic")
    tids = system.perfmon.thread_ids("app")
    assert handle.tid in tids  # perfmon *sees* the thread exist...
    for tid in tids:
        # ...but reports a useless start address for every one of them.
        assert system.perfmon.thread_start_address(tid) == NTDLL_STUB_ADDRESS
    real_start = handle.deref().start_address
    assert system.perfmon.thread_start_address(handle.tid) != real_start
