"""Synthetic workload traces shaped like the paper's (Fig. 4).

The experiment horizon runs from 15:00 to 21:30 (t = 0 .. 23 400 s).
``world_cup_trace`` reproduces the scaled World Cup '98 day: a moderate
afternoon level, a sharp flash crowd around 16:52-17:14, and a broad
evening peak near the 100 req/s ceiling.  ``hp_trace`` reproduces the
scaled HP customer trace: a smoother, lower-amplitude business curve.
Traces are piecewise-linear over breakpoints with a deterministic
small-amplitude ripple so that consecutive monitoring intervals differ
slightly, exercising the workload bands.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

#: Seconds from 15:00 to 21:30.
EXPERIMENT_DURATION = 6.5 * 3600.0


def _minutes(hours: float, minutes: float = 0.0) -> float:
    """Seconds since 15:00 for a wall-clock ``hours:minutes``."""
    return (hours - 15.0) * 3600.0 + minutes * 60.0


class Trace:
    """Piecewise-linear request-rate trace with deterministic ripple."""

    def __init__(
        self,
        breakpoints: Sequence[tuple[float, float]],
        ripple_amplitude: float = 1.5,
        ripple_period: float = 900.0,
        ripple_harmonic: float = 0.5,
        phase: float = 0.0,
        floor: float = 0.0,
        ceiling: float = 100.0,
        name: str = "trace",
    ) -> None:
        if len(breakpoints) < 2:
            raise ValueError("a trace needs at least two breakpoints")
        times = [time for time, _ in breakpoints]
        if times != sorted(times):
            raise ValueError("breakpoints must be sorted by time")
        if len(set(times)) != len(times):
            raise ValueError("duplicate breakpoint times")
        self.name = name
        self._times = times
        self._rates = [rate for _, rate in breakpoints]
        self._ripple_amplitude = ripple_amplitude
        self._ripple_period = ripple_period
        self._ripple_harmonic = ripple_harmonic
        self._phase = phase
        self._floor = floor
        self._ceiling = ceiling

    def baseline(self, t: float) -> float:
        """Piecewise-linear rate without the ripple."""
        if t <= self._times[0]:
            return self._rates[0]
        if t >= self._times[-1]:
            return self._rates[-1]
        index = bisect_right(self._times, t) - 1
        t0, t1 = self._times[index], self._times[index + 1]
        r0, r1 = self._rates[index], self._rates[index + 1]
        fraction = (t - t0) / (t1 - t0)
        return r0 + fraction * (r1 - r0)

    def rate(self, t: float) -> float:
        """Offered request rate (req/s) at experiment time ``t``.

        The ripple is a triangle wave (constant |slope|, so workload
        bands are crossed at a steady cadence on plateaus — the quality
        that makes stability intervals predictable) plus a small
        sinusoidal harmonic for texture.
        """
        cycle = (t / self._ripple_period + self._phase / (2.0 * math.pi)) % 1.0
        triangle = 4.0 * abs(cycle - 0.5) - 1.0
        ripple = self._ripple_amplitude * (
            triangle
            + self._ripple_harmonic
            * math.sin(
                2.0 * math.pi * t / (self._ripple_period / 3.1)
                + 2.0 * self._phase
            )
        )
        value = self.baseline(t) + ripple
        return min(self._ceiling, max(self._floor, value))

    def __call__(self, t: float) -> float:
        return self.rate(t)

    def sample_series(
        self, start: float, end: float, step: float
    ) -> list[tuple[float, float]]:
        """(t, rate) samples every ``step`` seconds over [start, end]."""
        if step <= 0:
            raise ValueError("step must be positive")
        samples = []
        t = start
        while t <= end + 1e-9:
            samples.append((t, self.rate(t)))
            t += step
        return samples


def world_cup_trace(
    variant: int = 0,
    peak: float = 100.0,
    name: str = "world-cup",
) -> Trace:
    """Scaled World Cup '98 day: flash crowd plus a broad evening peak.

    ``variant`` perturbs timing and levels slightly so RUBiS-1 and
    RUBiS-2 are correlated but not identical, as in Fig. 4.
    """
    shift = 180.0 * variant  # a few minutes of offset between variants
    level = 1.0 - 0.06 * variant
    points = [
        (_minutes(15, 0), 12.0),
        (_minutes(15, 40), 18.0),
        (_minutes(16, 20), 24.0),
        (_minutes(16, 45), 30.0),
        # Flash crowd 16:52-17:14 (the interval Fig. 5 validates on).
        (_minutes(16, 52) + shift, 55.0),
        (_minutes(17, 0) + shift, 0.92 * peak),
        (_minutes(17, 8) + shift, 0.95 * peak),
        (_minutes(17, 14) + shift, 60.0),
        (_minutes(17, 30), 38.0),
        (_minutes(18, 0), 34.0),
        (_minutes(18, 40), 45.0),
        # Broad evening peak.
        (_minutes(19, 20), 70.0),
        (_minutes(19, 50) + shift, 0.88 * peak),
        (_minutes(20, 20), 75.0),
        (_minutes(20, 50), 52.0),
        (_minutes(21, 10), 38.0),
        (_minutes(21, 30), 30.0),
    ]
    scaled = [(time, level * rate) for time, rate in points]
    return Trace(
        scaled,
        ripple_amplitude=2.5,
        ripple_period=1500.0,
        ripple_harmonic=0.15,
        phase=0.9 * variant,
        name=f"{name}-{variant}",
    )


def hp_trace(
    variant: int = 0,
    name: str = "hp",
) -> Trace:
    """Scaled HP customer trace: a smooth, moderate business curve."""
    level = 1.0 - 0.08 * variant
    points = [
        (_minutes(15, 0), 30.0),
        (_minutes(15, 45), 36.0),
        (_minutes(16, 30), 42.0),
        (_minutes(17, 15), 47.0),
        (_minutes(18, 0), 50.0),
        (_minutes(18, 45), 46.0),
        (_minutes(19, 30), 40.0),
        (_minutes(20, 15), 33.0),
        (_minutes(21, 0), 27.0),
        (_minutes(21, 30), 24.0),
    ]
    scaled = [(time, level * rate) for time, rate in points]
    return Trace(
        scaled,
        ripple_amplitude=2.0,
        ripple_period=1800.0,
        ripple_harmonic=0.12,
        phase=1.7 + 0.8 * variant,
        name=f"{name}-{variant}",
    )


def standard_traces(app_names: Sequence[str]) -> dict[str, Trace]:
    """The paper's assignment: first two apps World Cup, rest HP."""
    traces: dict[str, Trace] = {}
    for index, app_name in enumerate(app_names):
        if index < 2:
            traces[app_name] = world_cup_trace(variant=index)
        else:
            traces[app_name] = hp_trace(variant=index - 2)
    return traces
