"""MSMQ does not copy a body, so no receiver may change one.

DESIGN.md §5: a remote message's body reaches the receiving queue as the
sender's object.  The sender's outgoing entry keeps that same object for
retries and diverter redirects, so a receiver that mutated a body would
change what the sender retransmits.  These tests pin both halves: the
crossing is by reference, and no receiver in the paper's Call Track
demo or in a DR chaos run changes a body it was handed.
"""

from __future__ import annotations

import copy

import pytest

from repro.chaos.runner import ChaosRun
from repro.chaos.schedule import ChaosSchedule, FaultEntry
from repro.core.config import OfttConfig, replace_config
from repro.harness.scenario import build_demo
from repro.msq.manager import QueueManager
from repro.msq.queue import MsmqQueue

from tests.msq.test_manager import make_managers


def test_remote_send_delivers_the_senders_very_object():
    world, sender, receiver = make_managers()
    receiver.create_queue("inbox")
    body = {"kind": "start", "line": 3, "history": [1, 2]}
    sender.send("receiver", "inbox", body)
    world.run_for(100.0)
    assert receiver.open_queue("inbox").receive().body is body
    assert sender.pending_count() == 0


class BodyLedger:
    """Send-time deep copies of every MSMQ body, and every delivered message."""

    def __init__(self, monkeypatch) -> None:
        self.sent = {}  # message id -> deep copy of the body, taken before sending
        self.managers = []  # every manager that sent, in first-send order
        self.delivered = []  # every message handed to a queue, duplicates included
        real_send = QueueManager.send
        real_enqueue = MsmqQueue.enqueue

        def send(manager, dest_node, dest_queue, body, *args, **kwargs):
            # Copied before the real send: a local send may reach its
            # subscriber before send() returns.
            snapshot = copy.deepcopy(body)
            message_id = real_send(manager, dest_node, dest_queue, body, *args, **kwargs)
            self.sent[message_id] = snapshot
            if manager not in self.managers:
                self.managers.append(manager)
            return message_id

        def enqueue(queue, message, now):
            self.delivered.append(message)
            return real_enqueue(queue, message, now)

        monkeypatch.setattr(QueueManager, "send", send)
        monkeypatch.setattr(MsmqQueue, "enqueue", enqueue)

    def check(self):
        """Assert every tracked body still equals its copy; returns (delivered, pending) counts."""
        delivered = [m for m in self.delivered if m.message_id in self.sent]
        for message in delivered:
            assert message.body == self.sent[message.message_id], message
        pending = [entry.message for manager in self.managers for entry in manager.outgoing.values()]
        for message in pending:
            assert message.body == self.sent[message.message_id], message
        return len(delivered), len(pending)


@pytest.fixture
def ledger(monkeypatch):
    return BodyLedger(monkeypatch)


def test_call_track_receivers_leave_bodies_unchanged_through_a_redirect(ledger):
    demo = build_demo(seed=3)
    demo.start()
    demo.run_for(10_000.0)
    primary = demo.pair.primary_node()
    demo.systems[primary].power_off()
    # Events sent to the dead primary wait in the test PC's outgoing store.
    demo.run_for(100.0)
    _delivered, pending = ledger.check()
    assert pending > 0
    demo.run_for(10_000.0)
    assert demo.pair.primary_node() not in (None, primary)
    assert demo.diverter_client.redirect_count > 0
    delivered, _pending = ledger.check()
    assert delivered > 0


def test_dr_chaos_receivers_leave_bodies_unchanged(ledger):
    # Total pair loss: the diverter redirects to the backup, then the DR
    # site activates and replays its message log.
    schedule = ChaosSchedule(
        entries=[
            FaultEntry(8_000.0, "node-failure", {"node": "alpha"}),
            FaultEntry(9_000.0, "node-failure", {"node": "beta"}),
        ],
        horizon=20_000.0,
    )
    config = replace_config(OfttConfig(), replication_strategy="log-replay-dr")
    run = ChaosRun(seed=0, schedule=schedule, config=config)
    result = run.execute()
    assert result.passed
    scenario = run.scenario
    assert scenario.message_driven
    assert scenario.diverter_client.redirect_count > 0
    assert scenario.trace.count(event="dr-activated") > 0
    delivered, _pending = ledger.check()
    assert delivered > 0
