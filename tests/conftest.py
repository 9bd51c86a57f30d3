"""Shared fixtures for the OFTT reproduction test suite."""

from __future__ import annotations

import pytest

from repro.harness.scenario import Scenario


@pytest.fixture
def world() -> Scenario:
    """A fresh empty world (seed 0)."""
    return make_world(seed=0)


@pytest.fixture
def two_machines(world: Scenario):
    """World with two booted machines, alpha and beta, on one LAN."""
    alpha = world.add_machine("alpha")
    beta = world.add_machine("beta")
    return world, alpha, beta


def make_world(seed: int = 0) -> Scenario:
    """Non-fixture construction for parametrised/property tests: one LAN, no machines."""
    return Scenario(seed, dual_lan=False)
