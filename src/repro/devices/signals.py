"""Process-variable waveform models.

Each model maps simulated time to a physical value; sensors sample them.
Models are pure given (time, rng) so device scans are reproducible.
"""

from __future__ import annotations

import math
from typing import Optional


class SignalModel:
    """Base class: override :meth:`sample`."""

    def sample(self, time: float, rng) -> float:
        """The signal value at *time* (rng for stochastic models)."""
        raise NotImplementedError


class Constant(SignalModel):
    """A flat signal."""

    def __init__(self, value: float) -> None:
        self.value = value

    def sample(self, time: float, rng) -> float:
        return self.value


class Sine(SignalModel):
    """Sinusoid: offset + amplitude * sin(2*pi*time/period)."""

    def __init__(self, offset: float = 0.0, amplitude: float = 1.0, period: float = 10_000.0) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.offset = offset
        self.amplitude = amplitude
        self.period = period

    def sample(self, time: float, rng) -> float:
        return self.offset + self.amplitude * math.sin(2.0 * math.pi * time / self.period)


class Step(SignalModel):
    """Jumps from *before* to *after* at *at_time*."""

    def __init__(self, before: float, after: float, at_time: float) -> None:
        self.before = before
        self.after = after
        self.at_time = at_time

    def sample(self, time: float, rng) -> float:
        return self.after if time >= self.at_time else self.before


class RandomWalk(SignalModel):
    """Mean-reverting random walk, clamped to [minimum, maximum].

    Stateful: successive samples move by a Gaussian step plus a pull back
    towards *mean*.  Sampling must therefore be monotone in time.
    """

    def __init__(
        self,
        start: float = 0.0,
        step: float = 1.0,
        mean: Optional[float] = None,
        reversion: float = 0.02,
        minimum: float = float("-inf"),
        maximum: float = float("inf"),
    ) -> None:
        self.current = start
        self.step = step
        self.mean = mean if mean is not None else start
        self.reversion = reversion
        self.minimum = minimum
        self.maximum = maximum

    def sample(self, time: float, rng) -> float:
        drift = (self.mean - self.current) * self.reversion
        self.current += drift + rng.gauss(0.0, self.step)
        self.current = min(self.maximum, max(self.minimum, self.current))
        return self.current
