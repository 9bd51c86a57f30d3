"""Unit tests for the role negotiation state machine.

These drive two negotiators over a direct message pipe (no network) so
every §3.2 scenario — skewed startup, lost peers, retries, the original
shutdown logic, dual-primary resolution — is tested in isolation.
"""

import pytest

from repro.core.config import GiveUpPolicy, OfttConfig, replace_config
from repro.core.roles import ROLE_BY_VALUE, Role, RoleNegotiator, role_of
from repro.errors import RoleError
from repro.simnet.kernel import SimKernel


class Harness:
    """Two negotiators joined by an in-kernel message pipe."""

    def __init__(self, config=None, latency=1.0):
        self.kernel = SimKernel()
        self.config = config or OfttConfig()
        self.latency = latency
        self.connected = True
        self.events = []
        self.negotiators = {}
        for name, peer in (("alpha", "beta"), ("beta", "alpha")):
            self.negotiators[name] = RoleNegotiator(
                kernel=self.kernel,
                node_name=name,
                peer_name=peer,
                config=self.config,
                send=self._sender(name, peer),
                on_decided=lambda role, n=name: self.events.append((n, "decided", role)),
                on_shutdown=lambda n=name: self.events.append((n, "shutdown", None)),
                on_demoted=lambda n=name: self.events.append((n, "demoted", None)),
            )

    def _sender(self, source, dest):
        def send(payload):
            if self.connected:
                self.kernel.schedule(self.latency, self._deliver, dest, dict(payload))

        return send

    def _deliver(self, dest, payload):
        self.negotiators[dest].on_peer_announce(payload)

    def roles(self):
        return {name: negotiator.role for name, negotiator in self.negotiators.items()}


def test_simultaneous_startup_tiebreak():
    harness = Harness()
    for negotiator in harness.negotiators.values():
        negotiator.begin()
    harness.kernel.run(until=10_000.0)
    assert harness.roles() == {"alpha": Role.PRIMARY, "beta": Role.BACKUP}


def test_skewed_startup_converges_with_retries():
    harness = Harness()
    harness.negotiators["alpha"].begin()
    # Beta starts 2.5 wait periods later: alpha must burn retries.
    harness.kernel.schedule(2_500.0, harness.negotiators["beta"].begin)
    harness.kernel.run(until=20_000.0)
    roles = sorted(role.value for role in harness.roles().values())
    assert roles == ["backup", "primary"]
    assert harness.negotiators["alpha"].retries_used >= 2


def test_original_logic_shuts_down_lone_node():
    config = replace_config(OfttConfig(), startup_retries=0, give_up_policy=GiveUpPolicy.SHUTDOWN)
    harness = Harness(config=config)
    harness.connected = False  # peer never hears anything
    harness.negotiators["alpha"].begin()
    harness.kernel.run(until=20_000.0)
    assert harness.negotiators["alpha"].role is Role.SHUTDOWN
    assert ("alpha", "shutdown", None) in harness.events


def test_go_primary_policy_runs_alone():
    config = replace_config(OfttConfig(), startup_retries=2, give_up_policy=GiveUpPolicy.GO_PRIMARY)
    harness = Harness(config=config)
    harness.connected = False
    harness.negotiators["alpha"].begin()
    harness.kernel.run(until=20_000.0)
    assert harness.negotiators["alpha"].role is Role.PRIMARY
    assert harness.negotiators["alpha"].retries_used == 2


def test_rejoining_node_becomes_backup():
    harness = Harness()
    for negotiator in harness.negotiators.values():
        negotiator.begin()
    harness.kernel.run(until=5_000.0)
    # Beta "reboots": fresh negotiator, alpha already primary.
    fresh = RoleNegotiator(
        kernel=harness.kernel,
        node_name="beta",
        peer_name="alpha",
        config=harness.config,
        send=harness._sender("beta", "alpha"),
        on_decided=lambda role: None,
        on_shutdown=lambda: None,
        on_demoted=lambda: None,
    )
    harness.negotiators["beta"] = fresh
    fresh.begin()
    harness.kernel.run(until=15_000.0)
    assert fresh.role is Role.BACKUP
    assert harness.negotiators["alpha"].role is Role.PRIMARY


def test_promote_and_demote_transitions():
    harness = Harness()
    for negotiator in harness.negotiators.values():
        negotiator.begin()
    harness.kernel.run(until=5_000.0)
    backup = harness.negotiators["beta"]
    backup.promote()
    assert backup.role is Role.PRIMARY
    assert backup.incarnation == 2
    with pytest.raises(RoleError):
        backup.promote()
    backup.demote()
    assert backup.role is Role.BACKUP
    with pytest.raises(RoleError):
        backup.demote()


def test_dual_primary_resolved_by_incarnation():
    harness = Harness()
    for negotiator in harness.negotiators.values():
        negotiator.begin()
    harness.kernel.run(until=5_000.0)
    alpha = harness.negotiators["alpha"]  # primary, incarnation 1
    beta = harness.negotiators["beta"]  # backup
    harness.connected = False
    beta.promote()  # partition-style promotion: incarnation 2
    harness.connected = True
    # Heal: exchange announcements both ways.
    alpha._announce()
    beta._announce()
    harness.kernel.run(until=10_000.0)
    assert alpha.role is Role.BACKUP  # lower incarnation demotes
    assert beta.role is Role.PRIMARY
    assert alpha.incarnation == beta.incarnation
    assert ("alpha", "demoted", None) in harness.events


def test_begin_twice_rejected():
    harness = Harness()
    harness.negotiators["alpha"].begin()
    harness.kernel.run(until=20_000.0)  # long enough to exhaust retries
    assert harness.negotiators["alpha"].role is not Role.UNDECIDED
    with pytest.raises(RoleError):
        harness.negotiators["alpha"].begin()


def test_role_of_returns_the_enum_member_for_every_value():
    assert set(ROLE_BY_VALUE.values()) == set(Role)
    for role in Role:
        assert role_of(role.value) is Role(role.value)
    assert role_of(Role.BACKUP) is Role(Role.BACKUP)


@pytest.mark.parametrize("value", ["leader", "PRIMARY", "", None, ["primary"]])
def test_role_of_rejects_unknown_values_like_the_enum(value):
    with pytest.raises(ValueError) as enum_error:
        Role(value)
    with pytest.raises(ValueError) as map_error:
        role_of(value)
    assert str(map_error.value) == str(enum_error.value)
