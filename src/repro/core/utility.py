"""The utility model (paper §II-B, Eqs. 1-3, Fig. 3).

Application utility accrues at ``reward(w)/M`` dollars per second while
the mean response time meets its target and at ``penalty(w)/M`` (a
negative number) while it misses.  Power utility accrues negatively at
the metered wattage times the energy price.  The overall utility of a
control window (Eq. 3) integrates the transient rates over each
adaptation action's duration plus the steady rates of the final
configuration over the remainder of the stability interval.

The reward/penalty functions reproduce Fig. 3: as the request rate
grows the reward increases and the penalty shrinks in magnitude,
reflecting the increasingly best-effort nature of the service.  The
reward scale is calibrated so the service yields ~20% net profit over
the power cost of the paper's default configuration (§V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping


@dataclass(frozen=True)
class UtilityParameters:
    """Knobs of the utility model (paper §V-A values as defaults)."""

    #: Monitoring interval M in seconds.
    monitoring_interval: float = 120.0
    #: Target mean response time in seconds (derived from the default
    #: configuration in the paper; see :func:`derive_target_response_time`).
    target_response_time: float = 0.4
    #: Dollars per watt consumed over one monitoring interval.
    cost_per_watt_interval: float = 0.01
    #: Reward at the top of the workload range, in dollars per interval.
    reward_scale: float = 3.5
    #: Workload normalization ceiling (req/s).
    workload_scale: float = 100.0
    #: Reward at zero load as a fraction of ``reward_scale``.
    reward_floor_fraction: float = 0.1
    #: |Penalty| at zero load as a fraction of ``reward_scale``.
    penalty_ceiling_fraction: float = 1.0
    #: |Penalty| at full load as a fraction of ``reward_scale``.
    penalty_floor_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.monitoring_interval <= 0:
            raise ValueError("monitoring_interval must be positive")
        if self.target_response_time <= 0:
            raise ValueError("target_response_time must be positive")
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be positive")
        if not 0 <= self.reward_floor_fraction <= 1:
            raise ValueError("reward_floor_fraction must be in [0, 1]")
        if self.penalty_floor_fraction > self.penalty_ceiling_fraction:
            raise ValueError("penalty must shrink (floor <= ceiling)")


class UtilityModel:
    """Evaluates Eqs. 1-2 and the Fig. 3 reward/penalty curves.

    Eq. 3 is not here: it lives only in the search's ``_SearchRun``
    (the child arithmetic) and in
    ``repro.telemetry.provenance.plan_breakdown`` (the per-term
    record), both built on :meth:`perf_utility_rate` and
    :meth:`power_utility_rate`.
    """

    def __init__(
        self,
        parameters: UtilityParameters | None = None,
        target_rt_fn: Callable[[str, float], float] | None = None,
    ) -> None:
        self.parameters = parameters or UtilityParameters()
        self._target_rt_fn = target_rt_fn

    # -- Fig. 3 -----------------------------------------------------------

    def reward(self, request_rate: float) -> float:
        """Dollars earned per monitoring interval for meeting the target."""
        params = self.parameters
        load = min(max(request_rate / params.workload_scale, 0.0), 1.0)
        floor = params.reward_floor_fraction
        return params.reward_scale * (floor + (1.0 - floor) * load)

    def penalty(self, request_rate: float) -> float:
        """Dollars lost (negative) per interval for missing the target."""
        params = self.parameters
        load = min(max(request_rate / params.workload_scale, 0.0), 1.0)
        ceiling = params.penalty_ceiling_fraction
        floor = params.penalty_floor_fraction
        return -params.reward_scale * (ceiling - (ceiling - floor) * load)

    def target_response_time(self, app_name: str, request_rate: float) -> float:
        """Target mean response time for an app at a request rate."""
        if self._target_rt_fn is not None:
            return self._target_rt_fn(app_name, request_rate)
        return self.parameters.target_response_time

    # -- Eq. 1 / Eq. 2 ------------------------------------------------------

    def perf_utility_rate(
        self, app_name: str, request_rate: float, response_time: float
    ) -> float:
        """Application utility accrual rate in dollars per second (Eq. 1)."""
        target = self.target_response_time(app_name, request_rate)
        interval = self.parameters.monitoring_interval
        if response_time <= target:
            return self.reward(request_rate) / interval
        return self.penalty(request_rate) / interval

    def total_perf_rate(
        self,
        workloads: Mapping[str, float],
        response_times: Mapping[str, float],
    ) -> float:
        """Sum of per-application utility rates."""
        return sum(
            self.perf_utility_rate(app, rate, response_times[app])
            for app, rate in workloads.items()
        )

    def power_utility_rate(self, watts: float) -> float:
        """Power utility accrual rate (negative dollars per second, Eq. 2)."""
        params = self.parameters
        price_per_watt_second = (
            params.cost_per_watt_interval / params.monitoring_interval
        )
        return -watts * price_per_watt_second

    def interval_utility(
        self,
        workloads: Mapping[str, float],
        response_times: Mapping[str, float],
        watts: float,
        duration: float | None = None,
    ) -> float:
        """Utility accrued over one monitoring interval (for metering)."""
        span = duration if duration is not None else (
            self.parameters.monitoring_interval
        )
        rate = self.total_perf_rate(workloads, response_times)
        rate += self.power_utility_rate(watts)
        return rate * span

    # -- calibration -----------------------------------------------------------

    def calibrated(
        self,
        default_config_watts: float,
        app_count: int,
        reference_rate: float = 50.0,
        profit_margin: float = 0.2,
    ) -> "UtilityModel":
        """Reward scale yielding the paper's ~20% net profit anchor.

        Chooses ``reward_scale`` so that, with every application at the
        reference rate and meeting its target, total rewards exceed the
        default configuration's power cost by ``profit_margin``.
        """
        if app_count < 1:
            raise ValueError("app_count must be >= 1")
        if default_config_watts <= 0:
            raise ValueError("default_config_watts must be positive")
        params = self.parameters
        power_cost = default_config_watts * params.cost_per_watt_interval
        needed_reward = (1.0 + profit_margin) * power_cost / app_count
        load = min(max(reference_rate / params.workload_scale, 0.0), 1.0)
        floor = params.reward_floor_fraction
        fraction = floor + (1.0 - floor) * load
        scale = needed_reward / fraction
        return UtilityModel(
            replace(params, reward_scale=scale), self._target_rt_fn
        )
