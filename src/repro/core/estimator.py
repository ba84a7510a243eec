"""Shared utility estimation for the optimizers (Fig. 2's predictors).

Bundles the Performance Manager (LQN solver), the Power Consolidation
Manager (power model), and the utility model into one cached evaluator:
given a configuration and workload it returns the steady-state utility
accrual rates the optimizers compare.  Results are memoized per
(configuration, workload) with LRU eviction because the A* search
revisits configurations heavily.

Two evaluation paths produce bit-identical estimates:

- :meth:`UtilityEstimator.estimate` solves the configuration from
  scratch;
- :meth:`UtilityEstimator.estimate_child` reuses the parent
  configuration's :class:`~repro.perfmodel.solver.SolveState` and
  re-solves only the tiers owning the VMs one adaptation action
  touched.  The search primes the root with
  :meth:`UtilityEstimator.prime` and then every vertex along a search
  path is evaluated at delta cost.

Callers evaluating many configurations under one workload vector should
compute :meth:`UtilityEstimator.workload_key` once and pass it to every
call, skipping the per-lookup ``tuple(sorted(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.config import Configuration, VmCatalog
from repro.core.lru import LruDict
from repro.core.utility import UtilityModel
from repro.telemetry import runtime as _telemetry
from repro.perfmodel.lqn import PerformanceEstimate
from repro.perfmodel.solver import LqnSolver
from repro.power.model import SystemPowerModel


@dataclass(frozen=True)
class SteadyEstimate:
    """Predicted steady-state behaviour of one configuration."""

    response_times: Mapping[str, float]
    watts: float
    perf_rate: float
    power_rate: float
    app_perf_rates: Mapping[str, float]
    #: Total CPU actually burned by VMs (utilization x cap, summed).
    busy_cpu: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "response_times", dict(self.response_times))
        object.__setattr__(self, "app_perf_rates", dict(self.app_perf_rates))

    @property
    def total_rate(self) -> float:
        """Net utility accrual rate (performance plus negative power)."""
        return self.perf_rate + self.power_rate


class UtilityEstimator:
    """Cached (configuration, workload) -> utility-rate evaluation."""

    def __init__(
        self,
        solver: LqnSolver,
        power_models: SystemPowerModel,
        utility: UtilityModel,
        catalog: VmCatalog,
        cache_size: int = 200_000,
        state_cache_size: int = 8_192,
    ) -> None:
        self.solver = solver
        self.power_models = power_models
        self.utility = utility
        self.catalog = catalog
        self._cache: LruDict[tuple, SteadyEstimate] = LruDict(
            cache_size, name="estimator.steady"
        )
        self._states: LruDict[tuple, object] = LruDict(
            state_cache_size, name="estimator.states"
        )
        self.evaluations = 0
        #: How many of the evaluations went through the delta path.
        self.incremental_evaluations = 0

    # -- keys ------------------------------------------------------------------

    def workload_key(self, workloads: Mapping[str, float]) -> tuple:
        """Canonical hashable key for one workload vector.

        Compute it once per search/optimize pass and hand it to
        :meth:`estimate`/:meth:`estimate_child` to avoid re-sorting the
        workload mapping on every cache probe.
        """
        return tuple(sorted(workloads.items()))

    # -- evaluation ------------------------------------------------------------

    def estimate(
        self,
        configuration: Configuration,
        workloads: Mapping[str, float],
        key: Optional[tuple] = None,
    ) -> SteadyEstimate:
        """Steady-state utility rates of a configuration under a workload."""
        if key is None:
            key = self.workload_key(workloads)
        cache_key = (configuration, key)
        cached = self._cache.get(cache_key)
        if cached is not None:
            if _telemetry.enabled:
                _telemetry.registry.counter("estimator.memo_hits").inc()
            return cached

        self.evaluations += 1
        if _telemetry.enabled:
            _telemetry.registry.counter("estimator.evaluations").inc()
        performance = self.solver.solve(configuration, workloads)
        estimate = self._finish(configuration, workloads, performance)
        self._cache.put(cache_key, estimate)
        return estimate

    def has_state(
        self,
        configuration: Configuration,
        workloads: Optional[Mapping[str, float]] = None,
        key: Optional[tuple] = None,
    ) -> bool:
        """Whether a solver state for ``configuration`` is installed.

        When it is, children of ``configuration`` resume the incremental
        delta path — strictly cheaper than a fresh solve each — so a
        caller about to evaluate that parent's children need not
        :meth:`prime` it first.
        """
        if key is None:
            key = self.workload_key(workloads or {})
        return (configuration, key) in self._states

    def prime(
        self,
        configuration: Configuration,
        workloads: Mapping[str, float],
        key: Optional[tuple] = None,
    ) -> None:
        """Install a solver state for ``configuration`` (the delta root).

        Children evaluated via :meth:`estimate_child` chain their states
        off this one; without a primed root the first generation falls
        back to full solves.
        """
        if key is None:
            key = self.workload_key(workloads)
        cache_key = (configuration, key)
        if cache_key in self._states:
            return
        state = self.solver.solve_state(configuration, workloads)
        self._states.put(cache_key, state)
        if cache_key not in self._cache:
            self.evaluations += 1
            if _telemetry.enabled:
                _telemetry.registry.counter("estimator.evaluations").inc()
            self._cache.put(
                cache_key,
                self._finish(configuration, workloads, state.estimate),
            )

    def estimate_batch(
        self,
        configurations: Sequence[Configuration],
        workloads: Mapping[str, float],
        key: Optional[tuple] = None,
    ) -> list[SteadyEstimate]:
        """:meth:`estimate` of each configuration.  No caller in the
        package; it stays while the closed-loop benchmark's tracer
        (``perfbench/tracing.py``) wraps it by name."""
        if key is None:
            key = self.workload_key(workloads)
        return [
            self.estimate(configuration, workloads, key)
            for configuration in configurations
        ]

    def estimate_child(
        self,
        parent: Configuration,
        configuration: Configuration,
        changed_vms: Iterable[str],
        workloads: Mapping[str, float],
        key: Optional[tuple] = None,
    ) -> SteadyEstimate:
        """Estimate a configuration one action away from ``parent``.

        ``changed_vms`` are the VMs whose placement or cap the action
        altered (the VMs of ``AdaptationAction.placement_delta``); host
        power changes need no declaration.  When the parent's solver
        state is available the affected tiers alone are re-solved; the
        result is bit-identical to :meth:`estimate` either way.
        """
        if key is None:
            key = self.workload_key(workloads)
        cache_key = (configuration, key)
        cached = self._cache.get(cache_key)
        if cached is not None:
            if _telemetry.enabled:
                _telemetry.registry.counter("estimator.memo_hits").inc()
            return cached

        self.evaluations += 1
        parent_state = self._states.get((parent, key))
        if parent_state is None:
            # Lineage broken (state evicted or root never primed):
            # solve fully, planting a state so descendants resume the
            # delta path.
            state = self.solver.solve_state(configuration, workloads)
            if _telemetry.enabled:
                _telemetry.registry.counter("estimator.evaluations").inc()
        else:
            state = self.solver.update_state(
                parent_state, configuration, workloads, changed_vms
            )
            self.incremental_evaluations += 1
            if _telemetry.enabled:
                registry = _telemetry.registry
                registry.counter("estimator.evaluations").inc()
                registry.counter("estimator.incremental_evaluations").inc()
        estimate = self._finish(configuration, workloads, state.estimate)
        self._states.put(cache_key, state)
        self._cache.put(cache_key, estimate)
        return estimate

    def _finish(
        self,
        configuration: Configuration,
        workloads: Mapping[str, float],
        performance: PerformanceEstimate,
    ) -> SteadyEstimate:
        """Fold a performance estimate into utility rates and power."""
        watts = self.power_models.total_watts(
            configuration.powered_hosts, performance.host_utilizations
        )
        app_rates = {
            app: self.utility.perf_utility_rate(
                app, rate, performance.response_times[app]
            )
            for app, rate in workloads.items()
        }
        busy_cpu = 0.0
        for vm_id, rho in performance.vm_utilizations.items():
            placement = configuration.placement_of(vm_id)
            if placement is not None:
                busy_cpu += min(rho, 1.0) * placement.cpu_cap
        return SteadyEstimate(
            response_times=performance.response_times,
            watts=watts,
            perf_rate=sum(app_rates.values()),
            power_rate=self.utility.power_utility_rate(watts),
            app_perf_rates=app_rates,
            busy_cpu=busy_cpu,
        )

    def transient_rates(
        self,
        base: SteadyEstimate,
        workloads: Mapping[str, float],
        rt_delta: Mapping[str, float],
        power_delta_watts: float,
    ) -> tuple[float, float]:
        """Utility rates while an action with the given deltas executes.

        ``base`` is the steady estimate of the configuration the action
        starts from, estimated under the same ``workloads``; the deltas
        come from the Cost Manager.  (The A*'s array rounds replay this
        arithmetic per round, bit for bit; see ``_AStar.array_children``.)
        """
        # Apps the action does not touch keep the parent's rate: the
        # delta is 0.0 and ``rt + 0.0 == rt``, so recomputing would
        # reproduce ``base.app_perf_rates[app]`` bit for bit — reuse it.
        app_rates = base.app_perf_rates
        perf_rate = 0.0
        for app, rate in workloads.items():
            delta = rt_delta.get(app, 0.0)
            if delta == 0.0:
                perf_rate += app_rates[app]
            else:
                perf_rate += self.utility.perf_utility_rate(
                    app, rate, base.response_times[app] + delta
                )
        if power_delta_watts == 0.0:
            power_rate = base.power_rate
        else:
            power_rate = self.utility.power_utility_rate(
                base.watts + power_delta_watts
            )
        return perf_rate, power_rate

    def clear_cache(self) -> None:
        """Drop all memoized evaluations and solver states."""
        self._cache.clear()
        self._states.clear()


class FeedbackUtilityEstimator(UtilityEstimator):
    """Estimator whose utility consults a :class:`ModelFeedback`.

    The feedback's version is part of the memoization key so cached
    estimates (and solver states) are invalidated whenever the bias
    estimates move.
    """

    def __init__(self, feedback, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.feedback = feedback

    def workload_key(self, workloads: Mapping[str, float]) -> tuple:
        return (tuple(sorted(workloads.items())), self.feedback.version)
