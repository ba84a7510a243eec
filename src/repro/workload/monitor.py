"""Workload bands and stability-interval measurement (paper §II-B, §III-D).

Each controller watches the per-application workload through a *band*
of width ``b`` centered on the workload measured when the band was
(re)established.  While every application stays inside its band the
system is in a stability interval; the moment any application escapes,
the monitor measures the elapsed interval, feeds it to the ARMA
estimator, re-centers all bands on the current workloads, and reports
the escape so the controller can re-evaluate the configuration.

A band width of zero (the paper's 1st-level controllers) makes every
observation an escape, i.e. periodic invocation at the monitoring
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.workload.arma import StabilityIntervalEstimator


@dataclass(frozen=True)
class BandEscape:
    """One workload-band escape event."""

    time: float
    escaped_apps: tuple[str, ...]
    measured_interval: float
    estimated_next_interval: float
    workloads: Mapping[str, float]


class WorkloadMonitor:
    """Tracks workload bands for one controller."""

    def __init__(
        self,
        band_width: float,
        estimator: Optional[StabilityIntervalEstimator] = None,
        app_names: Optional[tuple[str, ...]] = None,
    ) -> None:
        if band_width < 0:
            raise ValueError("band_width must be >= 0")
        self.band_width = band_width
        self.estimator = estimator or StabilityIntervalEstimator()
        self._app_names = app_names
        self._centers: Optional[dict[str, float]] = None
        self._band_start: float = 0.0
        self.escapes: list[BandEscape] = []

    @property
    def band_centers(self) -> Optional[dict[str, float]]:
        """Current band centers, or ``None`` before the first sample."""
        return dict(self._centers) if self._centers is not None else None

    def _escaped(self, workloads: Mapping[str, float]) -> tuple[str, ...]:
        assert self._centers is not None
        half = self.band_width / 2.0
        return tuple(
            app
            for app, rate in workloads.items()
            if app in self._centers and abs(rate - self._centers[app]) > half
        )

    def observe(
        self, now: float, workloads: Mapping[str, float]
    ) -> Optional[BandEscape]:
        """Feed one monitoring sample; returns an escape event or None.

        The first observation establishes the bands and counts as an
        escape (the controller must evaluate the initial placement).
        """
        tracked = (
            {app: workloads[app] for app in self._app_names}
            if self._app_names is not None
            else dict(workloads)
        )
        if self._centers is None:
            self._centers = dict(tracked)
            self._band_start = now
            event = BandEscape(
                time=now,
                escaped_apps=tuple(sorted(tracked)),
                measured_interval=0.0,
                estimated_next_interval=self.estimator.estimate,
                workloads=dict(tracked),
            )
            self.escapes.append(event)
            return event

        escaped = self._escaped(tracked)
        if not escaped:
            return None

        measured = now - self._band_start
        estimate = (
            self.estimator.observe(measured) if measured > 0
            else self.estimator.estimate
        )
        self._centers = dict(tracked)
        self._band_start = now
        event = BandEscape(
            time=now,
            escaped_apps=escaped,
            measured_interval=measured,
            estimated_next_interval=estimate,
            workloads=dict(tracked),
        )
        self.escapes.append(event)
        return event

    def force_escape(
        self, now: float, workloads: Mapping[str, float]
    ) -> BandEscape:
        """Re-center the bands and report an escape unconditionally.

        Used by the resilience layer to force re-planning after an
        aborted adaptation plan: the workloads may still sit inside
        their bands, but the cluster is no longer in the configuration
        the last decision assumed.  The interrupted interval is *not*
        fed to the ARMA estimator — the escape is synthetic, not a
        workload shift, and would bias the stability statistics.
        """
        tracked = (
            {app: workloads[app] for app in self._app_names}
            if self._app_names is not None
            else dict(workloads)
        )
        self._centers = dict(tracked)
        self._band_start = now
        event = BandEscape(
            time=now,
            escaped_apps=tuple(sorted(tracked)),
            measured_interval=0.0,
            estimated_next_interval=self.estimator.estimate,
            workloads=dict(tracked),
        )
        self.escapes.append(event)
        return event

    def measured_intervals(self) -> list[float]:
        """All positive measured stability intervals so far."""
        return [
            escape.measured_interval
            for escape in self.escapes
            if escape.measured_interval > 0
        ]
