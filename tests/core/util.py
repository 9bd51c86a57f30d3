"""Helpers for core-layer tests: a ready-made pair environment."""

from __future__ import annotations

from typing import Optional

from repro.apps.synthetic import SyntheticStateApp
from repro.core.config import OfttConfig
from repro.harness.scenario import Scenario


class PairWorld(Scenario):
    """A one-LAN world + an assembled OfttPair, the common core-test environment."""

    def __init__(self, seed: int = 0, config: Optional[OfttConfig] = None, app_factory=None, **roles):
        super().__init__(seed, dual_lan=False, config=config)
        for name in ("alpha", "beta"):
            self.add_machine(name)
        factory = app_factory or (lambda: SyntheticStateApp(cold_kb=2, mode="selective", tick_period=50.0))
        self.add_pair(("alpha", "beta"), factory, unit="test", **roles)

    @property
    def primary(self) -> str:
        return self.pair.primary_node()

    @property
    def backup(self) -> str:
        return self.pair.backup_node()


def make_pair_world(seed: int = 0, config: Optional[OfttConfig] = None, **kwargs) -> PairWorld:
    """Construct (without starting) a two-node pair world."""
    return PairWorld(seed=seed, config=config, **kwargs)
