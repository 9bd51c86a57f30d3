"""The fault catalogue.

Every fault targets an :class:`~repro.faults.injector.Environment` — a
duck-typed bundle exposing ``systems`` (name → NTSystem), ``network``,
optionally ``pair`` (the OfttPair) and ``fieldbuses``.  Faults are
idempotent-ish: applying one to an already-failed target is a no-op
rather than an error, so randomized campaigns compose safely.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import FaultInjectionError
from repro.nt.system import SystemState


class Fault:
    """Base fault: subclasses implement :meth:`apply`."""

    #: §4 demo letter this fault reproduces ("" for extensions).
    demo_id = ""

    def apply(self, env: Any) -> None:
        """Inject the fault into *env* now."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner."""
        return type(self).__name__

    def _system(self, env: Any, node: str):
        if node not in env.systems:
            raise FaultInjectionError(f"no such node {node}")
        return env.systems[node]

    def __repr__(self) -> str:
        return self.describe()


class NodeFailure(Fault):
    """§4 demo (a): the machine loses power."""

    demo_id = "a"

    def __init__(self, node: str) -> None:
        self.node = node

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        if system.state is not SystemState.OFF:
            system.power_off()

    def describe(self) -> str:
        return f"node failure (power-off) on {self.node}"


class BlueScreen(Fault):
    """§4 demo (b): NT crash — the blue screen of death."""

    demo_id = "b"

    def __init__(self, node: str) -> None:
        self.node = node

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        if system.state is SystemState.UP:
            system.bluescreen()

    def describe(self) -> str:
        return f"NT crash (bluescreen) on {self.node}"


class AppCrash(Fault):
    """§4 demo (c): the application process dies."""

    demo_id = "c"

    def __init__(self, node: str, process_name: str) -> None:
        self.node = node
        self.process_name = process_name

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        process = system.find_process(self.process_name)
        if process is not None and process.alive:
            process.kill(code=-9)

    def describe(self) -> str:
        return f"application failure: {self.process_name} on {self.node}"


class TransientAppCrash(AppCrash):
    """A crash expected to be transient (exercises LOCAL_RESTART rules)."""

    demo_id = ""

    def describe(self) -> str:
        return f"transient application failure: {self.process_name} on {self.node}"


class StickyAppCrash(AppCrash):
    """A crash that re-kills the process for *duration* ms.

    Models a persistent software fault (corrupt install, poison input
    replayed from the checkpoint): every relaunch on the same node dies
    again until the fault expires.  Local-restart-only policies burn
    the whole duration; escalating policies move the app to the peer,
    where the fault does not follow.  A stomp loop re-checks every
    *recheck* ms via the system kernel; it disarms itself when the
    duration elapses or the machine goes down.
    """

    def __init__(
        self, node: str, process_name: str, duration: float = 3_000.0, recheck: float = 50.0
    ) -> None:
        if duration <= 0.0:
            raise FaultInjectionError(f"sticky-crash duration must be positive, got {duration}")
        if recheck <= 0.0:
            raise FaultInjectionError(f"sticky-crash recheck must be positive, got {recheck}")
        super().__init__(node, process_name)
        self.duration = duration
        self.recheck = recheck
        self._armed = False

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        if self._armed:
            return
        self._armed = True
        kernel = system.kernel
        expires_at = kernel.now + self.duration

        def stomp() -> None:
            if kernel.now >= expires_at or system.state is not SystemState.UP:
                return
            process = system.find_process(self.process_name)
            if process is not None and process.alive:
                process.kill(code=-9)
            kernel.schedule(self.recheck, stomp)

        stomp()

    def describe(self) -> str:
        return f"sticky application failure: {self.process_name} on {self.node} for {self.duration}ms"


class AppHang(Fault):
    """The application wedges: process alive, threads stuck (heartbeats stop)."""

    def __init__(self, node: str, process_name: str) -> None:
        self.node = node
        self.process_name = process_name

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        process = system.find_process(self.process_name)
        if process is not None and process.alive:
            process.hang()

    def describe(self) -> str:
        return f"application hang: {self.process_name} on {self.node}"


class MiddlewareCrash(Fault):
    """§4 demo (d): the OFTT engine process dies."""

    demo_id = "d"

    def __init__(self, node: str) -> None:
        self.node = node

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        process = system.find_process("oftt-engine")
        if process is not None and process.alive:
            process.kill(code=-9)

    def describe(self) -> str:
        return f"OFTT middleware failure on {self.node}"


class LinkDown(Fault):
    """An entire Ethernet segment goes down."""

    def __init__(self, link: str) -> None:
        self.link = link

    def apply(self, env: Any) -> None:
        if self.link not in env.network.links:
            raise FaultInjectionError(f"no such link {self.link}")
        env.network.links[self.link].up = False

    def describe(self) -> str:
        return f"link down: {self.link}"


class NicDown(Fault):
    """One node's NIC on one segment fails (dual-network experiments)."""

    def __init__(self, node: str, link: str) -> None:
        self.node = node
        self.link = link

    def apply(self, env: Any) -> None:
        env.network.nodes[self.node].nic_down(self.link)

    def describe(self) -> str:
        return f"NIC down: {self.node} on {self.link}"


class NetworkPartition(Fault):
    """Partition every segment between two node groups."""

    def __init__(self, side_a: List[str], side_b: List[str]) -> None:
        self.side_a = list(side_a)
        self.side_b = list(side_b)

    def apply(self, env: Any) -> None:
        env.partitions.split_all(self.side_a, self.side_b)

    def describe(self) -> str:
        return f"network partition: {self.side_a} | {self.side_b}"


class FieldbusFailure(Fault):
    """The industrial network to the PLC devices fails."""

    def __init__(self, bus_name: str) -> None:
        self.bus_name = bus_name

    def apply(self, env: Any) -> None:
        buses = getattr(env, "fieldbuses", {})
        if self.bus_name not in buses:
            raise FaultInjectionError(f"no such fieldbus {self.bus_name}")
        buses[self.bus_name].fail()

    def describe(self) -> str:
        return f"fieldbus failure: {self.bus_name}"


class NodeReboot(Fault):
    """Power-cycle a node and (optionally) reinstall its OFTT stack.

    Models the repair action after demos (a)/(b): the machine comes back,
    the NT services restart, and the node rejoins the pair as backup.
    """

    def __init__(self, node: str, reinstall: bool = True) -> None:
        self.node = node
        self.reinstall = reinstall

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        if system.state is SystemState.BOOTING:
            # Already power-cycling; a second reboot while the machine is
            # coming up is a no-op (double-apply safety for campaigns).
            return
        if system.state is SystemState.UP:
            system.power_off()
        system.reboot()
        if self.reinstall and getattr(env, "pair", None) is not None:
            node = self.node

            def rejoin(booted_system) -> None:
                # One-shot: boot callbacks persist across reboots.  A
                # power-off mid-boot leaves this hook armed while the next
                # reboot arms another, so the later hook finds the engine
                # already rebuilt and stands down, as ReinstallMiddleware
                # does; a second reinstall would collide.
                booted_system.on_boot.remove(rejoin)
                engine = env.pair.engines.get(node)
                if engine is None or not engine.alive:
                    env.pair.reinstall_node(node)

            system.on_boot.append(rejoin)

    def describe(self) -> str:
        return f"reboot {self.node} (reinstall={self.reinstall})"


class ReinstallMiddleware(Fault):
    """Restart the OFTT stack on a node whose machine stayed up.

    The repair action after :class:`MiddlewareCrash`: the NT service
    manager relaunches the engine, which rejoins the pair.  No-op when
    the machine is down (a reboot will reinstall via its boot hook) or
    when the engine is already alive.
    """

    def __init__(self, node: str) -> None:
        self.node = node

    def apply(self, env: Any) -> None:
        pair = getattr(env, "pair", None)
        if pair is None:
            return
        system = self._system(env, self.node)
        if system.state is not SystemState.UP:
            return
        engine = pair.engines.get(self.node)
        if engine is not None and engine.alive:
            return
        pair.reinstall_node(self.node)

    def describe(self) -> str:
        return f"reinstall OFTT middleware on {self.node}"


class AsymmetricPartition(Fault):
    """One-way connectivity loss: *sources* can no longer reach *dests*.

    Unlike :class:`NetworkPartition` the reverse direction keeps working,
    so A hears B's heartbeats while B declares A dead — the classic
    asymmetric-partition split-brain recipe.
    """

    def __init__(self, sources: List[str], dests: List[str]) -> None:
        self.sources = list(sources)
        self.dests = list(dests)

    def apply(self, env: Any) -> None:
        for source in self.sources:
            for dest in self.dests:
                if source != dest:
                    env.network.block_direction(source, dest)

    def describe(self) -> str:
        return f"asymmetric partition: {self.sources} -/-> {self.dests}"


class HealNetwork(Fault):
    """Repair action: heal all partitions and lift directional blocks.

    Restores two-way reachability on every segment.  Link-quality
    degradations (corruption, duplication, gray delay, clock skew) have
    their own paired repair faults and are left alone.
    """

    def apply(self, env: Any) -> None:
        env.partitions.heal_all()
        env.network.clear_blocks()

    def describe(self) -> str:
        return "heal network (partitions + directional blocks)"


class MessageCorruption(Fault):
    """Frames on one segment fail their checksum with some probability.

    Detected corruption: the receiver discards the frame, so the effect
    is loss that MSMQ/DCOM retry layers must absorb.  Probability 0
    repairs the link.
    """

    def __init__(self, link: str, probability: float) -> None:
        if probability < 0.0 or probability > 1.0:
            raise FaultInjectionError(f"corruption probability must be in [0, 1], got {probability}")
        self.link = link
        self.probability = probability

    def apply(self, env: Any) -> None:
        if self.link not in env.network.links:
            raise FaultInjectionError(f"no such link {self.link}")
        env.network.set_corruption(self.link, self.probability)

    def describe(self) -> str:
        return f"message corruption on {self.link} (p={self.probability})"


class MessageDuplication(Fault):
    """Frames on one segment are delivered twice with some probability.

    Exercises receiver-side dedup (MSMQ seen-ids) and idempotency of
    heartbeat/checkpoint handlers.  Probability 0 repairs the link.
    """

    def __init__(self, link: str, probability: float) -> None:
        if probability < 0.0 or probability > 1.0:
            raise FaultInjectionError(f"duplication probability must be in [0, 1], got {probability}")
        self.link = link
        self.probability = probability

    def apply(self, env: Any) -> None:
        if self.link not in env.network.links:
            raise FaultInjectionError(f"no such link {self.link}")
        env.network.set_duplication(self.link, self.probability)

    def describe(self) -> str:
        return f"message duplication on {self.link} (p={self.probability})"


class GrayNode(Fault):
    """Fail-slow host: every frame the node sends is delayed by *delay* ms.

    The machine is up and its software runs, but its traffic straggles —
    the gray-failure mode that trips naive timeout-based detectors.
    Delay 0 repairs the node.
    """

    def __init__(self, node: str, delay: float) -> None:
        if delay < 0.0:
            raise FaultInjectionError(f"gray-node delay must be non-negative, got {delay}")
        self.node = node
        self.delay = delay

    def apply(self, env: Any) -> None:
        self._system(env, self.node)  # validate the node exists
        env.network.set_egress_delay(self.node, self.delay)

    def describe(self) -> str:
        return f"gray node: {self.node} egress +{self.delay}ms"


class ClockSkew(Fault):
    """Stretch one node's OFTT timer periods by *scale*.

    scale > 1 models a slow clock: heartbeats and status reports leave
    the node late relative to the peer's (true-time) timeouts.  Scale 1
    repairs the node.
    """

    def __init__(self, node: str, scale: float) -> None:
        if scale <= 0.0:
            raise FaultInjectionError(f"clock-skew scale must be positive, got {scale}")
        self.node = node
        self.scale = scale

    def apply(self, env: Any) -> None:
        system = self._system(env, self.node)
        system.clock_scale = self.scale

    def describe(self) -> str:
        return f"clock skew on {self.node} (x{self.scale})"


class CrashDuringCheckpoint(Fault):
    """Bluescreen a node the instant its engine next submits a checkpoint.

    Exercises the §2.2.2 recovery window: the checkpoint is on the wire
    (or lost to a concurrent partition) when the primary dies, and the
    backup must resume from whichever sequence number it last stored.
    Arms a one-shot hook; re-applying while armed (or after the engine
    died) is a no-op.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self._armed = False

    def apply(self, env: Any) -> None:
        pair = getattr(env, "pair", None)
        if pair is None or self._armed:
            return
        engine = pair.engines.get(self.node)
        if engine is None or not engine.alive:
            return
        system = self._system(env, self.node)
        self._armed = True

        def crash(eng, checkpoint) -> None:
            if crash in engine.on_checkpoint_submit:
                engine.on_checkpoint_submit.remove(crash)
            if system.state is SystemState.UP:
                system.bluescreen()

        # One-shot: the crash closure removes itself from the hook list
        # on first fire (see above), a release the static search cannot
        # attribute to a teardown method.
        engine.on_checkpoint_submit.append(crash)  # oftt-lint: ok[leaked-subscription]

    def describe(self) -> str:
        return f"crash during checkpoint on {self.node}"
