"""Experiment metrics: time series and per-run summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class TimeSeries:
    """An append-only (time, value) series with small analytics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def append(self, time: float, value: float) -> None:
        """Record one sample (times must be non-decreasing)."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"{self.name}: time {time} before last {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> list[float]:
        """Sample times."""
        return list(self._times)

    @property
    def values(self) -> list[float]:
        """Sample values."""
        return list(self._values)

    def last(self) -> float:
        """Most recent value."""
        if not self._values:
            raise ValueError(f"{self.name}: empty series")
        return self._values[-1]

    def mean(self) -> float:
        """Arithmetic mean of the values."""
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    def maximum(self) -> float:
        """Largest value."""
        return max(self._values) if self._values else 0.0

    def total(self) -> float:
        """Sum of the values."""
        return sum(self._values)

    def cumulative(self) -> "TimeSeries":
        """Running-total series (e.g. cumulative utility, Fig. 9)."""
        series = TimeSeries(f"{self.name}:cumulative")
        running = 0.0
        for time, value in self:
            running += value
            series.append(time, running)
        return series

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly above a threshold."""
        if not self._values:
            return 0.0
        return sum(1 for value in self._values if value > threshold) / len(
            self._values
        )

    def window(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with times in [start, end]."""
        series = TimeSeries(self.name)
        for time, value in self:
            if start <= time <= end:
                series.append(time, value)
        return series


@dataclass
class ActionRecord:
    """One executed adaptation action, for reporting."""

    start: float
    end: float
    controller: str
    description: str


@dataclass
class RunMetrics:
    """Everything one experiment run produced."""

    strategy: str
    response_times: dict[str, TimeSeries] = field(default_factory=dict)
    workloads: dict[str, TimeSeries] = field(default_factory=dict)
    power_watts: TimeSeries = field(default_factory=lambda: TimeSeries("power"))
    utility_increments: TimeSeries = field(
        default_factory=lambda: TimeSeries("utility")
    )
    hosts_powered: TimeSeries = field(default_factory=lambda: TimeSeries("hosts"))
    actions: list[ActionRecord] = field(default_factory=list)
    search_seconds: TimeSeries = field(
        default_factory=lambda: TimeSeries("search")
    )
    search_power_watts: TimeSeries = field(
        default_factory=lambda: TimeSeries("search-power")
    )
    #: One plain-dict ``decision.provenance`` record per controller
    #: decision (see ``repro.telemetry.provenance``); empty unless the
    #: run executed with telemetry + provenance collection enabled.
    decision_provenance: list = field(default_factory=list)
    #: Injected-fault tally (``repro.faults.FaultStats``) when the run
    #: was fault-injected; ``None`` for ordinary runs.
    fault_stats: Optional[object] = None
    #: Post-decision invariant violations
    #: (``repro.faults.InvariantViolation``) found by the chaos
    #: referee; empty unless the run executed with ``invariants=True``
    #: — and empty even then unless the hardening failed.
    invariant_violations: list = field(default_factory=list)
    #: The configuration deployed when the horizon ended.
    final_configuration: Optional[object] = None

    def cumulative_utility(self) -> float:
        """Total utility over the run (the Fig. 9 headline number)."""
        return self.utility_increments.total()

    def mean_power(self) -> float:
        """Average metered power over the run."""
        return self.power_watts.mean()

    def action_count(self) -> int:
        """Number of adaptation actions executed."""
        return len(self.actions)


def summarize_runs(
    runs: Iterable[RunMetrics], target_seconds: Optional[float] = None
) -> list[dict[str, object]]:
    """Comparison rows across strategies (used by the benchmarks)."""
    rows = []
    for run in runs:
        row: dict[str, object] = {
            "strategy": run.strategy,
            "cumulative_utility": round(run.cumulative_utility(), 1),
            "mean_power_watts": round(run.mean_power(), 1),
            "actions": run.action_count(),
        }
        if target_seconds is not None:
            for app_name, series in sorted(run.response_times.items()):
                row[f"viol_{app_name}"] = round(
                    series.fraction_above(target_seconds), 3
                )
        rows.append(row)
    return rows
