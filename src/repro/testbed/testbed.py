"""The simulated testbed (paper §V-A).

Wires the substrates into the experiment rig: applications driven by
workload traces on a cluster of simulated Xen hosts, with hidden true
performance/power/transient models, plus the calibrated artifacts the
controllers are allowed to see (offline-measured LQN parameters, fitted
power curves, cost tables).  ``run`` executes one strategy over the
experiment horizon, sampling measurements every monitoring interval,
invoking the controller, executing its decisions — including the
decision delay and the controller's own search power — and collecting
the metrics every figure of the paper is drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as replace_params
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.apps.application import ApplicationSet
from repro.cluster.cluster import Cluster
from repro.cluster.host import HostSpec
from repro.cluster.power_meter import PowerMeter
from repro.cluster.transients import TransientModel, TransientModelParameters
from repro.core.config import Configuration, ConstraintLimits, Placement
from repro.core.controller import Decision
from repro.core.estimator import UtilityEstimator
from repro.core.utility import UtilityModel, UtilityParameters
from repro.costmodel.manager import CostManager
from repro.faults import FaultConfig, FaultInjector, check_invariants
from repro.costmodel.measurement import MeasurementCampaign, run_campaign
from repro.perfmodel.calibration import calibrate_parameters
from repro.perfmodel.lqn import LqnParameters, parameters_for
from repro.perfmodel.solver import LqnSolver
from repro.power.calibration import calibrate_power_model
from repro.power.model import HostPowerModel, SystemPowerModel
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams
from repro.telemetry import runtime as _telemetry
from repro.testbed.metrics import ActionRecord, RunMetrics, TimeSeries
from repro.workload.traces import EXPERIMENT_DURATION, Trace

#: Anything a strategy's control loop may return from ``on_sample``.
ControllerOutput = Union[None, Decision, Sequence[Decision]]


@dataclass(frozen=True)
class TestbedSettings:
    """Experiment-rig parameters (paper §V-A defaults)."""

    monitoring_interval: float = 120.0
    horizon: float = EXPERIMENT_DURATION
    #: Per-interval service-demand jitter of the true system.
    demand_noise: float = 0.03
    #: Relative noise on measured response times.
    rt_measurement_noise: float = 0.01
    meter_noise_watts: float = 1.0
    #: Relative error of a single offline demand measurement.
    calibration_noise: float = 0.05
    #: Extra metered draw of always-on infrastructure (storage, pool).
    infrastructure_watts: float = 0.0
    host_idle_watts: float = 60.0
    host_busy_watts: float = 100.0
    #: True power-curve exponents are drawn uniformly from this range.
    power_exponent_range: tuple[float, float] = (1.25, 1.55)
    cost_placements_per_point: int = 6
    #: Request rate per application used for the default-configuration
    #: anchors (target response time, reward calibration).
    reference_rate: float = 50.0
    #: CPU cap of every tier in the default configuration.
    default_cap: float = 0.4
    #: Session think time implied by the sessions = 8 x rate mapping:
    #: the finite client population bounds response times in overload
    #: (closed-loop saturation), so measured response times are capped
    #: at ``overload_base_response + think_time * (rho - 1)``.
    closed_loop_think_time: float = 8.0
    #: Base of the closed-loop cap, as a multiple of the target.
    overload_base_multiple: float = 3.0
    #: Controllers plan against this fraction of the true target so
    #: that ~5% model error does not park the system on the knife edge
    #: where predicted-met targets are actually missed.
    planning_target_margin: float = 0.75


class Testbed:
    """Builds the truth + calibrated artifacts and runs strategies."""

    def __init__(
        self,
        applications: ApplicationSet,
        traces: Mapping[str, Trace],
        host_ids: Sequence[str],
        limits: Optional[ConstraintLimits] = None,
        seed: int = 0,
        settings: Optional[TestbedSettings] = None,
    ) -> None:
        missing = set(applications.names()) - set(traces)
        if missing:
            raise ValueError(f"no trace for applications {sorted(missing)}")
        self.applications = applications
        self.traces = dict(traces)
        self.host_ids = tuple(host_ids)
        self.limits = limits or ConstraintLimits()
        self.settings = settings or TestbedSettings()
        self.streams = RandomStreams(seed)
        self.catalog = applications.build_catalog()

        # ---- hidden truth ------------------------------------------------
        self.truth_parameters: LqnParameters = parameters_for(applications)
        self.truth_solver = LqnSolver(self.catalog, self.truth_parameters)
        exponent_rng = self.streams.stream("power-exponents")
        low, high = self.settings.power_exponent_range
        self.truth_power = SystemPowerModel(
            {
                host_id: HostPowerModel(
                    idle_watts=self.settings.host_idle_watts,
                    busy_watts=self.settings.host_busy_watts,
                    exponent=float(exponent_rng.uniform(low, high)),
                )
                for host_id in self.host_ids
            }
        )
        self.transient_parameters = TransientModelParameters()

        # ---- calibrated artifacts (what controllers see) ------------------
        self.model_parameters = calibrate_parameters(
            self.truth_parameters,
            self.streams.stream("lqn-calibration"),
            measurement_noise=self.settings.calibration_noise,
        )
        self.model_solver = LqnSolver(self.catalog, self.model_parameters)
        self.model_power = SystemPowerModel(
            {
                host_id: calibrate_power_model(
                    self.truth_power.host_model(host_id),
                    self.streams.stream(f"power-calibration:{host_id}"),
                    meter_noise_watts=self.settings.meter_noise_watts,
                )
                for host_id in self.host_ids
            }
        )
        self.utility = self._calibrated_utility()
        planning_params = replace_params(
            self.utility.parameters,
            target_response_time=self.utility.parameters.target_response_time
            * self.settings.planning_target_margin,
        )
        #: What the controllers optimize with: same rewards/prices, but
        #: a margined response-time target (see TestbedSettings).
        self.planning_utility = UtilityModel(planning_params)
        self.estimator = UtilityEstimator(
            self.model_solver,
            self.model_power,
            self.planning_utility,
            self.catalog,
        )
        self.cost_table = self._measure_costs()
        self.cost_manager = CostManager(self.cost_table, self.catalog)

    # ------------------------------------------------------------------
    # calibration anchors
    # ------------------------------------------------------------------

    def default_configuration(self) -> Configuration:
        """The paper's default configuration: every tier at 40% cap.

        One replica per tier on a dedicated host pair per application
        (front tiers together, database alone) — the allocation that
        can serve the peak rate, matching the Perf-Cost pool.  Used to
        derive the target response time and the reward scale.
        """
        cap = self.settings.default_cap
        if len(self.host_ids) < 2 * len(self.applications):
            raise RuntimeError(
                "default configuration needs two hosts per application"
            )
        placements: dict[str, Placement] = {}
        for index, app in enumerate(self.applications):
            front, back = (
                self.host_ids[2 * index],
                self.host_ids[2 * index + 1],
            )
            tiers = app.tier_names()
            for tier_name in tiers[:-1]:
                placements[f"{app.name}-{tier_name}-0"] = Placement(front, cap)
            placements[f"{app.name}-{tiers[-1]}-0"] = Placement(back, cap)
        powered = frozenset(
            placement.host_id for placement in placements.values()
        )
        return Configuration(placements, powered)

    def reference_workloads(self) -> dict[str, float]:
        """Every application at the reference rate (50 req/s)."""
        return {
            app_name: self.settings.reference_rate
            for app_name in self.applications.names()
        }

    def _calibrated_utility(self) -> UtilityModel:
        """Derive target response time and reward scale (paper §V-A).

        The target is the mean response time of the default
        configuration at the reference rate; rewards are scaled for a
        ~20% net profit over that configuration's power cost.
        """
        default = self.default_configuration()
        reference = self.reference_workloads()
        performance = self.truth_solver.solve(default, reference)
        target = sum(performance.response_times.values()) / len(
            performance.response_times
        )
        watts = self.truth_power.total_watts(
            default.powered_hosts, performance.host_utilizations
        )
        base = UtilityModel(
            UtilityParameters(target_response_time=round(target, 3))
        )
        return base.calibrated(watts, app_count=len(self.applications))

    def _measure_costs(self):
        """Run the offline cost campaign on a dedicated rig."""
        apps = list(self.applications)
        background = apps[1] if len(apps) > 1 else apps[0]
        rig_hosts = [f"rig-{index}" for index in range(8)]
        campaign = MeasurementCampaign(
            target_app=apps[0],
            background_app=background,
            host_ids=rig_hosts,
            limits=self.limits,
            placements_per_point=self.settings.cost_placements_per_point,
        )
        return run_campaign(
            campaign,
            self.transient_parameters,
            self.streams.stream("cost-campaign"),
        )

    # ------------------------------------------------------------------
    # workloads
    # ------------------------------------------------------------------

    def workloads_at(self, time: float) -> dict[str, float]:
        """Offered request rates at experiment time ``time``."""
        return {
            app_name: self.traces[app_name].rate(time)
            for app_name in self.applications.names()
        }

    # ------------------------------------------------------------------
    # running a strategy
    # ------------------------------------------------------------------

    def run(
        self,
        controller,
        initial_configuration: Configuration,
        strategy: str,
        horizon: Optional[float] = None,
        faults: Optional[FaultConfig] = None,
        invariants: bool = False,
    ) -> RunMetrics:
        """Run one strategy over the horizon and collect metrics.

        ``controller`` is any object with
        ``on_sample(now, workloads, configuration, busy)`` returning a
        decision, a list of decisions, or None, plus
        ``record_interval_utility(value)``.

        ``strategy`` labels the controller variant in the metrics; the
        search backend is chosen when the controller is built
        (``build_mistral(search_strategy=)``, DESIGN.md §14).

        Every plan executes under the default
        :class:`~repro.faults.RecoveryPolicy`: timeouts, retries and
        rollback.  ``faults`` attaches a seeded :class:`FaultInjector`
        to the run: scripted host crashes are scheduled, plan attempts
        may fail or stall, and resilience-capable controllers get the
        default degradation ladder plus fault-cost charging and forced
        re-planning.
        Without ``faults`` nothing fails, and the run is bit-identical
        to one with an inert ``FaultConfig()``.

        ``invariants`` turns on the chaos referee: after every
        controller decision the committed configuration is re-checked
        from first principles (:func:`repro.faults.check_invariants` —
        allocation limits, replica-0 placement, Eq. 3 conservation,
        codec round-trip) and any violations are collected on
        ``RunMetrics.invariant_violations``.  The check only *reads*
        the decision, so an invariant-checked run stays bit-identical
        to an unchecked one.

        The telemetry sink is flushed on teardown, even when the run
        dies to ``KeyboardInterrupt`` or a mid-window exception, so the
        JSONL on disk is complete.
        """
        settings = self.settings
        span = horizon if horizon is not None else settings.horizon
        injector = FaultInjector(faults) if faults is not None else None
        if injector is not None and hasattr(controller, "enable_resilience"):
            controller.enable_resilience()
        engine = SimulationEngine()
        run_streams = self.streams.fork(f"run:{strategy}")
        demand_rng = run_streams.stream("demand-noise")
        rt_rng = run_streams.stream("rt-noise")
        transients = TransientModel(
            self.catalog,
            self.transient_parameters,
            run_streams.stream("transients"),
        )
        cluster = Cluster(
            [HostSpec(host_id) for host_id in self.host_ids],
            self.catalog,
            self.limits,
            engine,
            transients,
            self.truth_power,
            workload_provider=lambda: self.workloads_at(engine.now),
        )
        cluster.deploy(initial_configuration)
        meter = PowerMeter(
            cluster,
            infrastructure_watts=settings.infrastructure_watts,
            noise_watts=settings.meter_noise_watts,
            rng=run_streams.stream("meter"),
        )

        metrics = RunMetrics(strategy=strategy)
        for app_name in self.applications.names():
            metrics.response_times[app_name] = TimeSeries(app_name)
            metrics.workloads[app_name] = TimeSeries(f"W:{app_name}")

        search_effects: list[tuple[float, float, float]] = []
        pending: list[tuple[Decision, object]] = []

        demand_keys = list(self.truth_parameters.tier_demands)
        sigma = float(np.sqrt(np.log(1.0 + settings.demand_noise**2)))

        def demand_multipliers() -> dict[tuple[str, str], float]:
            if settings.demand_noise <= 0:
                return {}
            draws = demand_rng.normal(
                -0.5 * sigma**2, sigma, size=len(demand_keys)
            )
            return {
                key: float(np.exp(draw))
                for key, draw in zip(demand_keys, draws)
            }

        def search_power_now(now: float) -> float:
            return sum(
                watts
                for start, end, watts in search_effects
                if start <= now < end
            )

        def on_execution_fault(kind: str, detail: str) -> None:
            if hasattr(controller, "record_execution_fault"):
                controller.record_execution_fault(engine.now, kind)

        def wasted_plan_utility(execution) -> float:
            """Eq. 3 utility an aborted plan burned for nothing.

            Every attempt of an aborted plan (forward and rollback) paid
            its transient perf/power penalty without buying a lasting
            configuration change; price each record's elapsed window at
            the gap between the steady utility rate and the transient
            rate while it ran.
            """
            workloads = self.workloads_at(engine.now)
            try:
                base = self.estimator.estimate(
                    cluster.configuration, workloads
                )
            except Exception:  # noqa: BLE001 - best-effort accounting
                return 0.0
            wasted = 0.0
            for record in execution.records:
                elapsed = max(0.0, record.end - record.start)
                if elapsed <= 0.0:
                    continue
                perf_rate, power_rate = self.estimator.transient_rates(
                    base,
                    workloads,
                    record.spec.rt_delta,
                    record.spec.total_power_delta(),
                )
                wasted += elapsed * max(
                    0.0, base.total_rate - (perf_rate + power_rate)
                )
            return wasted

        def on_plan_complete(execution) -> None:
            if injector is None or execution.aborted is None:
                return
            wasted = wasted_plan_utility(execution)
            if _telemetry.enabled:
                _telemetry.tracer.event(
                    "resilience.plan_waste",
                    wasted_utility=wasted,
                    reason=execution.aborted,
                    rolled_back=execution.rolled_back,
                    t_sim=engine.now,
                )
            if hasattr(controller, "charge_fault_cost"):
                controller.charge_fault_cost(wasted)
            if hasattr(controller, "request_replan"):
                controller.request_replan(execution.aborted)

        if injector is not None:
            for crash in injector.config.host_crashes:
                if crash.host_id not in cluster.hosts:
                    raise ValueError(
                        f"scripted crash names unknown host {crash.host_id!r}"
                    )

                def do_crash(event=crash) -> None:
                    cluster.crash_host(event.host_id, fault_injector=injector)
                    if hasattr(controller, "record_execution_fault"):
                        controller.record_execution_fault(
                            engine.now, "host_crash"
                        )
                    if hasattr(controller, "request_replan"):
                        controller.request_replan(
                            f"host crash: {event.host_id}"
                        )

                engine.schedule_at(
                    crash.time, do_crash, label=f"crash:{crash.host_id}"
                )

        def sample() -> None:
            now = engine.now
            workloads = self.workloads_at(now)
            configuration = cluster.configuration

            truth = self.truth_solver.solve(
                configuration, workloads, demand_multipliers()
            )
            target = self.utility.parameters.target_response_time
            measured_rt: dict[str, float] = {}
            for app_name in workloads:
                noise = 1.0 + float(
                    rt_rng.normal(0.0, settings.rt_measurement_noise)
                )
                response = truth.response_times[app_name] * noise
                # Closed-loop cap: a finite session population cannot
                # drive the open-model response time to infinity.
                rho = max(
                    (
                        value
                        for (app, _), value in truth.tier_utilizations.items()
                        if app == app_name and value != float("inf")
                    ),
                    default=0.0,
                )
                if rho > 1.0:
                    bound = (
                        settings.overload_base_multiple * target
                        + settings.closed_loop_think_time * (rho - 1.0)
                    )
                    response = min(response, bound)
                if not np.isfinite(response):
                    # A tier with zero replicas (host crash stranded
                    # them all) solves to an infinite open-model RT;
                    # the closed session population still bounds what a
                    # client measures.  Unreachable without faults.
                    response = (
                        settings.overload_base_multiple * target
                        + settings.closed_loop_think_time
                    )
                measured_rt[app_name] = max(
                    0.0,
                    response
                    + cluster.transient_rt_delta_mean(
                        app_name,
                        now - settings.monitoring_interval,
                        now,
                    ),
                )
            watts = meter.read_windowed(
                truth.host_utilizations,
                now - settings.monitoring_interval,
                now,
            ) + search_power_now(now)

            increment = self.utility.interval_utility(
                workloads,
                measured_rt,
                watts,
                duration=settings.monitoring_interval,
            )
            for app_name, value in measured_rt.items():
                metrics.response_times[app_name].append(now, value)
            for app_name, rate in workloads.items():
                metrics.workloads[app_name].append(now, rate)
            metrics.power_watts.append(now, watts)
            metrics.utility_increments.append(now, increment)
            metrics.hosts_powered.append(
                now, len(configuration.powered_hosts)
            )
            controller.record_interval_utility(increment)
            if not cluster.is_adapting() and hasattr(
                controller, "record_measurements"
            ):
                # Feed measured response times to feedback-capable
                # controllers (skipped mid-adaptation: transient deltas
                # are not model bias).
                controller.record_measurements(
                    workloads, measured_rt, configuration
                )

            decisions = _normalize(
                controller.on_sample(
                    now, workloads, configuration, busy=cluster.is_adapting()
                )
            )
            for decision in decisions:
                provenance = getattr(decision.outcome, "provenance", None)
                if provenance is not None:
                    metrics.decision_provenance.append(
                        {
                            "t": now,
                            "controller": decision.controller,
                            **provenance.to_attrs(),
                        }
                    )
                if invariants:
                    committed = getattr(
                        decision.outcome, "final_configuration", None
                    )
                    if committed is not None:
                        metrics.invariant_violations.extend(
                            check_invariants(
                                committed,
                                self.catalog,
                                self.limits,
                                host_ids=self.host_ids,
                                utility=(
                                    provenance.utility
                                    if provenance is not None
                                    else None
                                ),
                                context=(
                                    f"{decision.controller}@t={now:g}"
                                ),
                            )
                        )
            if not decisions or cluster.is_adapting():
                return
            actions = []
            delay = 0.0
            for decision in decisions:
                actions.extend(decision.actions)
                delay = max(delay, decision.decision_seconds)
                search_effects.append(
                    (now, now + decision.decision_seconds, decision.search_watts)
                )
                metrics.search_seconds.append(now, decision.decision_seconds)
                metrics.search_power_watts.append(now, decision.search_watts)
            if not actions:
                return
            handle = cluster.execute_plan(
                actions,
                start_delay=delay,
                on_complete=on_plan_complete,
                fault_injector=injector,
                on_fault=on_execution_fault,
            )
            pending.append((decisions[0], handle))

        engine.schedule_periodic(
            settings.monitoring_interval,
            sample,
            start=0.0,
            label="monitor",
        )
        try:
            with _telemetry.span(
                "testbed.run",
                strategy=strategy,
                horizon=span,
                monitoring_interval=settings.monitoring_interval,
                hosts=len(self.host_ids),
                applications=len(self.applications),
            ):
                engine.run_until(span)
        finally:
            # Teardown must survive any mid-window death
            # (KeyboardInterrupt, a raising controller): flush the
            # trace sink so the JSONL on disk is complete.
            _telemetry.flush()
        _telemetry.emit_metrics_snapshot(strategy=strategy)

        for decision, handle in pending:
            for record in handle.records:
                description = str(record.action)
                if record.phase != "plan":
                    description += f" [{record.phase}]"
                if record.outcome != "ok":
                    description += f" [{record.outcome}]"
                metrics.actions.append(
                    ActionRecord(
                        start=record.start,
                        end=record.end,
                        controller=decision.controller,
                        description=description,
                    )
                )
        metrics.actions.sort(key=lambda record: record.start)
        metrics.final_configuration = cluster.configuration
        if injector is not None:
            metrics.fault_stats = injector.stats
        return metrics


def _normalize(output: ControllerOutput) -> list[Decision]:
    """Controller outputs come in three shapes; flatten to a list."""
    if output is None:
        return []
    if isinstance(output, Decision):
        return [output]
    return [decision for decision in output if decision is not None]
