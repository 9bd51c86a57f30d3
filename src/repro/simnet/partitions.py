"""Network partition orchestration.

The paper's startup logic (§3.2) exists to "minimize the impact of network
failures (i.e., both nodes becomes the primary)".  Experiments exercising
that logic need controlled partitions; this controller applies and heals
them.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.simnet.network import Network


class PartitionController:
    """Creates and heals partitions on a :class:`Network`."""

    def __init__(self, network: Network) -> None:
        self.network = network

    def split(self, link_name: str, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        """Partition *link_name* so side_a and side_b cannot communicate."""
        groups: Dict[str, int] = {}
        for node in side_a:
            groups[node] = 0
        for node in side_b:
            groups[node] = 1
        self.network.set_partition(link_name, groups)
        self.network.trace.emit("net", link_name, "partition", groups=groups)

    def heal(self, link_name: str) -> None:
        """Remove any partition on *link_name*."""
        self.network.set_partition(link_name, {})
        self.network.trace.emit("net", link_name, "partition-healed")

    def split_all(self, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        """Partition every segment the same way (full network split)."""
        side_a = list(side_a)
        side_b = list(side_b)
        for link_name in self.network.links:
            self.split(link_name, side_a, side_b)

    def heal_all(self) -> None:
        """Heal every segment."""
        for link_name in self.network.links:
            self.heal(link_name)
