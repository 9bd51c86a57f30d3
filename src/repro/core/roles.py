"""Role management: the primary/backup negotiation state machine.

"[The engine] determines the role of a node in the primary/backup pair
... during the startup and switchover by negotiating with the peer node"
(§2.2.1).  §3.2 describes how the original startup logic — come up as
backup, wait for the peer's periodic time stamp, shut down on timeout —
interacted badly with NT's non-deterministic boot times, and how retry
logic fixed it.  Both behaviours are implemented; the give-up policy and
retry count are configuration.

Dual-primary resolution: when two primaries meet (e.g. after a partition
heals), the one with the *higher* incarnation — the most recent
legitimate promotion — keeps the role; ties break towards the lower
node name.  The loser demotes.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Optional

from repro.core.config import GiveUpPolicy, OfttConfig
from repro.errors import RoleError
from repro.simnet.kernel import SimKernel
from repro.simnet.trace import TraceLog


class Role(enum.Enum):
    """Node role within the pair."""

    UNDECIDED = "undecided"
    PRIMARY = "primary"
    BACKUP = "backup"
    SHUTDOWN = "shutdown"


# The members bound once.  ``EnumType`` defines a Python-level
# ``__getattr__``, so on CPython 3.11 every ``Role.PRIMARY`` lookup takes
# the interpreter's slow attribute-hook path, and ``Role(value)`` runs
# ``EnumType.__call__``: each is an order of magnitude dearer than a
# module global or a dict lookup.  The heartbeat handlers and the chaos
# monitors read roles on every message and every tick, so they use these
# names and :func:`role_of` instead.
UNDECIDED = Role.UNDECIDED
PRIMARY = Role.PRIMARY
BACKUP = Role.BACKUP
SHUTDOWN = Role.SHUTDOWN

#: Wire value -> member, what ``Role(value)`` returns.
ROLE_BY_VALUE: Dict[str, Role] = {role.value: role for role in Role}


def role_of(value: Any) -> Role:
    """``Role(value)`` at one dict lookup; an unknown value raises ``ValueError``."""
    try:
        return ROLE_BY_VALUE[value]
    except (KeyError, TypeError):
        return Role(value)  # Enum's own lookup and its ValueError


class RoleNegotiator:
    """Per-engine role state machine.

    The owning engine feeds it peer messages (:meth:`on_peer_announce`)
    and it drives outcomes through callbacks:

    * ``send(payload)`` — transmit a negotiation message to the peer.
    * ``on_decided(role)`` — the node committed to PRIMARY or BACKUP.
    * ``on_shutdown()`` — startup gave up (original §3.2 logic).
    * ``on_demoted()`` — lost a dual-primary resolution.
    """

    def __init__(
        self,
        kernel: SimKernel,
        node_name: str,
        peer_name: str,
        config: OfttConfig,
        send: Callable[[Dict[str, Any]], None],
        on_decided: Callable[[Role], None],
        on_shutdown: Callable[[], None],
        on_demoted: Callable[[], None],
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.kernel = kernel
        self.node_name = node_name
        self.peer_name = peer_name
        self.config = config
        self.send = send
        self.on_decided = on_decided
        self.on_shutdown = on_shutdown
        self.on_demoted = on_demoted
        self.trace = trace if trace is not None else TraceLog(clock=lambda: kernel.now)
        self.role = UNDECIDED
        self.incarnation = 0
        self.retries_used = 0
        self._negotiating = False
        self._started = False
        self._wait_timer = None
        self.decided_at: Optional[float] = None

    # -- startup ---------------------------------------------------------------

    def begin(self) -> None:
        """Enter negotiation: announce and wait for the peer."""
        if self.role is not UNDECIDED:
            raise RoleError(f"{self.node_name}: begin() in role {self.role.value}")
        self._started = True
        self._negotiating = True
        self.retries_used = 0
        self._announce()
        self._arm_wait()

    def _announce(self) -> None:
        self.send(
            {
                "kind": "role-announce",
                "node": self.node_name,
                "role": self.role.value,
                "incarnation": self.incarnation,
            }
        )

    def _arm_wait(self) -> None:
        # Defensive: a stale handle here is either None or already fired
        # (cancel of a fired handle is a no-op), so re-arming can never
        # stack two live wait timers.
        self._cancel_wait()
        self._wait_timer = self.kernel.schedule(self.config.startup_wait, self._on_wait_expired)

    def _cancel_wait(self) -> None:
        if self._wait_timer is not None:
            self.kernel.cancel(self._wait_timer)
            self._wait_timer = None

    def stop(self) -> None:
        """Abandon negotiation and release the wait timer (node teardown)."""
        self._negotiating = False
        self._cancel_wait()

    def _on_wait_expired(self) -> None:
        if not self._negotiating:
            return
        if self.retries_used < self.config.startup_retries:
            # §3.2: "additional logic was added to initiate retries several
            # times before it shuts down."
            self.retries_used += 1
            self.trace.emit("role", self.node_name, "negotiation-retry", attempt=self.retries_used)
            self._announce()
            self._arm_wait()
            return
        if self.config.give_up_policy is GiveUpPolicy.SHUTDOWN:
            self._negotiating = False
            self.role = SHUTDOWN
            self.trace.emit("role", self.node_name, "startup-shutdown", retries=self.retries_used)
            self.on_shutdown()
        else:
            self.trace.emit("role", self.node_name, "lone-primary", retries=self.retries_used)
            self._decide(PRIMARY)

    # -- peer messages -------------------------------------------------------------

    def on_peer_announce(self, payload: Dict[str, Any]) -> None:
        """Handle a role announcement (or role-carrying heartbeat)."""
        if not self._started:
            # The engine (and with it, this negotiator) is not up yet; a
            # real node's port would not even be bound.
            return
        if self.role is SHUTDOWN:
            # Startup gave up and powered the stack down (§3.2): the same
            # unbound-port contract applies — a shut-down node must not
            # keep answering announcements (it used to, via the
            # rebooted-peer branch below).
            return
        peer_role = role_of(payload["role"])
        peer_incarnation = int(payload.get("incarnation", 0))
        if self.role is UNDECIDED:
            self._resolve_against(peer_role, peer_incarnation)
        elif self.role is PRIMARY and peer_role is PRIMARY:
            self._resolve_dual_primary(peer_incarnation)
        elif self.role is BACKUP and peer_role is PRIMARY:
            # Track the pair's epoch so a later promotion outranks the
            # primary we are following.
            self.incarnation = max(self.incarnation, peer_incarnation)
        elif peer_role is UNDECIDED and self._negotiating is False:
            # Rebooted peer asking around: tell it where things stand.
            self._announce()

    def _resolve_against(self, peer_role: Role, peer_incarnation: int) -> None:
        if peer_role is PRIMARY:
            self.incarnation = peer_incarnation  # adopt the pair's epoch
            self._decide(BACKUP)
        elif peer_role is BACKUP:
            # Outrank whatever epoch the waiting backup last followed.
            self.incarnation = max(self.incarnation, peer_incarnation + 1)
            self._decide(PRIMARY)
        elif peer_role is UNDECIDED:
            # Both undecided: deterministic tie-break.
            if self._wins_tiebreak():
                self._decide(PRIMARY)
            else:
                self._decide(BACKUP)

    def _wins_tiebreak(self) -> bool:
        return self.node_name < self.peer_name

    def _resolve_dual_primary(self, peer_incarnation: int) -> None:
        keep = (self.incarnation, self._wins_tiebreak()) > (peer_incarnation, not self._wins_tiebreak())
        if keep:
            self._announce()  # push the loser to demote
            return
        self.trace.emit("role", self.node_name, "dual-primary-demote", peer_incarnation=peer_incarnation)
        self.role = BACKUP
        self.incarnation = peer_incarnation
        self.decided_at = self.kernel.now
        self.on_demoted()

    def _decide(self, role: Role) -> None:
        self._negotiating = False
        self._cancel_wait()
        self.role = role
        if role is PRIMARY and self.incarnation == 0:
            self.incarnation = 1
        self.decided_at = self.kernel.now
        self.trace.emit("role", self.node_name, "role-decided", role=role.value, incarnation=self.incarnation)
        self._announce()
        self.on_decided(role)

    # -- runtime transitions -----------------------------------------------------------

    def promote(self) -> None:
        """Backup takes over (peer loss or explicit handoff)."""
        if self.role is not BACKUP:
            raise RoleError(f"{self.node_name}: promote from {self.role.value}")
        self.incarnation += 1
        self.role = PRIMARY
        self.decided_at = self.kernel.now
        self.trace.emit("role", self.node_name, "promoted", incarnation=self.incarnation)
        self._announce()

    def demote(self) -> None:
        """Primary steps down (explicit switchback)."""
        if self.role is not PRIMARY:
            raise RoleError(f"{self.node_name}: demote from {self.role.value}")
        self.role = BACKUP
        # Every role change stamps decided_at (promote()/_decide() do),
        # so demotion-driven transitions account their latency too.
        self.decided_at = self.kernel.now
        self.trace.emit("role", self.node_name, "demoted")
        self._announce()

    def __repr__(self) -> str:
        return f"RoleNegotiator({self.node_name}, {self.role.value}, inc={self.incarnation})"
