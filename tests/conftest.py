"""Shared fixtures for the OFTT reproduction test suite."""

from __future__ import annotations

import pytest

from repro.harness.scenario import Scenario
from repro.nt.system import NTSystem


class World(Scenario):
    """A bare scenario whose machines may sit on any named links."""

    def add_machine(self, name: str, links=("lan0",), boot: bool = True) -> NTSystem:
        """Create a node + NT machine attached to *links*, creating any missing link."""
        for link in links:
            if link not in self.network.links:
                self.network.add_link(link, latency=0.5, jitter=0.1)
        system = self._add_machine(name, lans=list(links))
        if boot:
            system.boot_immediately()
        return system


@pytest.fixture
def world() -> World:
    """A fresh empty world (seed 0)."""
    return make_world(seed=0)


@pytest.fixture
def two_machines(world: World):
    """World with two booted machines, alpha and beta, on one LAN."""
    alpha = world.add_machine("alpha")
    beta = world.add_machine("beta")
    return world, alpha, beta


def make_world(seed: int = 0) -> World:
    """Non-fixture construction for parametrised/property tests."""
    return World(seed, dual_lan=False)
