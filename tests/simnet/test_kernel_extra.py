"""Additional kernel coverage: nested processes, self-kill, reentrancy
guard."""

import pytest

from repro.errors import SimError
from repro.simnet.events import Timeout
from repro.simnet.kernel import SimKernel


def test_self_kill_from_inside_body():
    kernel = SimKernel()
    progressed = []
    holder = {}

    def body():
        while True:
            yield Timeout(10.0)
            progressed.append(kernel.now)
            if len(progressed) == 3:
                holder["process"].kill()  # a process tearing itself down

    holder["process"] = kernel.spawn(body())
    kernel.run(until=200.0)
    assert progressed == [10.0, 20.0, 30.0]
    assert not holder["process"].alive
    assert holder["process"].fired


def test_reentrant_run_rejected():
    kernel = SimKernel()

    def recurse():
        kernel.run()

    kernel.schedule(1.0, recurse)
    with pytest.raises(SimError, match="reentrant"):
        kernel.run()


def test_process_spawning_processes():
    kernel = SimKernel()
    order = []

    def grandchild():
        yield Timeout(1.0)
        order.append("grandchild")
        return 3

    def child():
        result = yield kernel.spawn(grandchild())
        order.append(("child", result))
        return result * 2

    def parent():
        result = yield kernel.spawn(child())
        order.append(("parent", result))

    kernel.spawn(parent())
    kernel.run()
    assert order == ["grandchild", ("child", 3), ("parent", 6)]
