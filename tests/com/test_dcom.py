"""Unit tests for DCOM remoting: proxies, ORPC, failure semantics."""

import pytest

from repro.com.dcom import RPC_TIMEOUT
from repro.com.hresult import E_NOINTERFACE, RPC_E_DISCONNECTED, RPC_E_TIMEOUT
from repro.com.interfaces import declare_interface
from repro.com.object import ComObject
from repro.com.runtime import ComRuntime
from repro.errors import RpcError

from tests.conftest import make_world

ICALC = declare_interface("ICalcT", ("Add", "Boom", "Notify"))


class Calc(ComObject):
    IMPLEMENTS = (ICALC,)

    def __init__(self):
        super().__init__()
        self.notifications = []

    def Add(self, a, b):
        return a + b

    def Boom(self):
        raise ValueError("kaput")  # oftt-lint: ok[com-bare-raise] -- exercises the bare-E_FAIL marshalling path

    def Notify(self, payload):
        self.notifications.append(payload)


ICOLLECT = declare_interface("ICollectT", ("Collect",))


class Collector(ComObject):
    """Records each call's argument, then mutates it in place."""

    IMPLEMENTS = (ICOLLECT,)

    def __init__(self):
        super().__init__()
        self.received = []

    def Collect(self, items):
        self.received.append(list(items))
        items.append("mutated")


def make_pair():
    world = make_world()
    server_sys = world.add_machine("server")
    client_sys = world.add_machine("client")
    server_rt = ComRuntime(server_sys, world.network)
    client_rt = ComRuntime(client_sys, world.network)
    return world, server_sys, client_sys, server_rt, client_rt


def timed_call(world, proxy, method, *args):
    """Drive one remote call to completion; returns ``(RpcResult, elapsed)``.

    *elapsed* is the call's duration in simulated ms (the kernel keeps
    running afterwards, so callers cannot use the post-run clock).
    """
    outcome = {}
    started = world.kernel.now

    def caller():
        outcome["result"] = yield proxy.call(method, *args)
        outcome["elapsed"] = world.kernel.now - started

    world.kernel.spawn(caller())
    world.run_for(10_000.0)
    return outcome["result"], outcome["elapsed"]


def call(world, proxy, method, *args):
    """Drive one remote call to completion; returns the RpcResult."""
    return timed_call(world, proxy, method, *args)[0]


def test_remote_call_returns_value():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    objref = server_rt.export(Calc(), label="calc")
    proxy = client_rt.proxy_for(objref)
    assert call(world, proxy, "Add", 2, 3).unwrap() == 5


def test_server_exception_marshaled_as_failure():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    proxy = client_rt.proxy_for(server_rt.export(Calc()))
    result = call(world, proxy, "Boom")
    assert not result.ok
    assert "kaput" in result.detail
    with pytest.raises(RpcError):
        result.unwrap()


def test_unknown_method_is_e_nointerface():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    proxy = client_rt.proxy_for(server_rt.export(Calc()))
    result = call(world, proxy, "Subtract", 1, 2)
    assert result.hresult == E_NOINTERFACE


def test_dead_node_call_burns_full_rpc_timeout():
    """§3.3: DCOM's RPC 'does not behave well in the presence of
    failures' — a dead machine means silence until the long timeout."""
    world, server_sys, _cs, server_rt, client_rt = make_pair()
    proxy = client_rt.proxy_for(server_rt.export(Calc()))
    server_sys.power_off()
    result, elapsed = timed_call(world, proxy, "Add", 1, 1)
    assert result.hresult == RPC_E_TIMEOUT
    assert elapsed >= RPC_TIMEOUT


def test_dead_process_answers_disconnected_quickly():
    world, server_sys, _cs, server_rt, client_rt = make_pair()
    host = server_sys.create_process("host")
    host.create_thread("main", dynamic=False)
    host.start()
    proxy = client_rt.proxy_for(server_rt.export(Calc(), process=host))
    host.kill()
    result, elapsed = timed_call(world, proxy, "Add", 1, 1)
    assert result.hresult == RPC_E_DISCONNECTED
    assert elapsed < 100.0  # answered, not timed out


def test_revoked_export_is_disconnected():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    objref = server_rt.export(Calc())
    proxy = client_rt.proxy_for(objref)
    server_rt.exporter.revoke(objref)
    result = call(world, proxy, "Add", 1, 1)
    assert result.hresult == RPC_E_DISCONNECTED


def test_oneway_call_delivers_without_reply():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    calc = Calc()
    proxy = client_rt.proxy_for(server_rt.export(calc))
    assert proxy.call_oneway("Notify", {"event": 1})
    world.run_for(100.0)
    assert calc.notifications == [{"event": 1}]


def test_duplicated_oneway_call_gets_a_fresh_copy_of_its_args_each_time():
    # The network gives a duplicated frame its own deep copy of the
    # payload, taken at send time, so the first delivery's mutation
    # never reaches the second.
    world, _ss, _cs, server_rt, client_rt = make_pair()
    collector = Collector()
    proxy = client_rt.proxy_for(server_rt.export(collector))
    world.network.set_duplication("lan0", 1.0)
    assert proxy.call_oneway("Collect", [1, "two", [3.0]])
    world.run_for(100.0)
    assert world.network.duplicated_count == 1
    assert collector.received == [[1, "two", [3.0]], [1, "two", [3.0]]]


def test_caller_mutating_its_args_after_the_call_does_not_reach_the_server():
    # marshal copies at the sender; receipt uses the delivered args.
    world, _ss, _cs, server_rt, client_rt = make_pair()
    collector = Collector()
    proxy = client_rt.proxy_for(server_rt.export(collector))
    oneway_args = [1, {"k": [2]}]
    assert proxy.call_oneway("Collect", oneway_args)
    oneway_args.append("late")
    oneway_args[1]["k"].append("late")
    twoway_args = ["x", [3.0]]
    done = proxy.call("Collect", twoway_args)
    twoway_args[1].append("late")
    world.run_for(100.0)
    assert done.fired and done.value.ok
    assert collector.received == [[1, {"k": [2]}], ["x", [3.0]]]


def test_duplicated_two_way_call_serves_private_args_and_answers_once():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    collector = Collector()
    proxy = client_rt.proxy_for(server_rt.export(collector))
    world.network.set_duplication("lan0", 1.0)
    results = []
    done = proxy.call("Collect", [1, "two", [3.0]])
    done.add_callback(lambda event: results.append(event.value))
    world.run_for(100.0)
    # The request and both replies were duplicated.
    assert world.network.duplicated_count == 3
    assert collector.received == [[1, "two", [3.0]], [1, "two", [3.0]]]
    assert len(results) == 1 and results[0].ok and results[0].value is None
    assert not client_rt.exporter._pending


def test_proxy_attribute_sugar():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    proxy = client_rt.proxy_for(server_rt.export(Calc()))
    outcome = {}

    def caller():
        result = yield proxy.Add(4, 5)
        outcome["value"] = result.unwrap()

    world.kernel.spawn(caller())
    world.run_for(1_000.0)
    assert outcome["value"] == 9


def test_remote_activation_creates_and_exports():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    server_rt.register_class("Test.Calc", Calc)
    outcome = {}

    def caller():
        activation = yield client_rt.remote_activate("server", "Test.Calc")
        objref = activation.unwrap()
        proxy = client_rt.proxy_for(objref)
        result = yield proxy.Add(10, 20)
        outcome["value"] = result.unwrap()

    world.kernel.spawn(caller())
    world.run_for(5_000.0)
    assert outcome["value"] == 30


def test_remote_activation_of_unregistered_class_fails():
    world, _ss, _cs, _server_rt, client_rt = make_pair()
    outcome = {}

    def caller():
        activation = yield client_rt.remote_activate("server", "No.Such")
        outcome["result"] = activation

    world.kernel.spawn(caller())
    world.run_for(5_000.0)
    assert not outcome["result"].ok


def test_late_reply_after_timeout_is_dropped():
    """A reply landing after the client gave up must not crash or refire."""
    world, server_sys, _cs, server_rt, client_rt = make_pair()
    # Slow the link so the round trip outlasts RPC_TIMEOUT.
    world.network.links["lan0"].latency = 1_500.0
    proxy = client_rt.proxy_for(server_rt.export(Calc()))
    result = call(world, proxy, "Add", 1, 1)
    assert result.hresult == RPC_E_TIMEOUT
    world.run_for(5_000.0)  # late reply arrives; nothing should explode


def test_calls_served_counter():
    world, _ss, _cs, server_rt, client_rt = make_pair()
    proxy = client_rt.proxy_for(server_rt.export(Calc()))
    served = [call(world, proxy, "Add", 1, 1), call(world, proxy, "Add", 2, 2)]
    assert [(result.ok, result.value) for result in served] == [(True, 2), (True, 4)]
