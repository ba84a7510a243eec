"""Scenario and strategy builders (paper §V).

``make_testbed`` assembles the 2-app (10 VMs / 4 hosts), 3-app (15 / 6),
or 4-app (20 / 8) scenarios with the paper's traces.  The ``build_*``
factories construct each control strategy wired to a testbed's
calibrated artifacts, returning the controller together with the
initial configuration it starts from.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.apps.application import ApplicationSet
from repro.apps.rubis import make_rubis_application
from repro.baselines.perf_cost import AppScopedPerfPwr, PerfCostController
from repro.baselines.perf_pwr import PerfPwrController
from repro.baselines.pwr_cost import PwrCostController
from repro.core.config import Configuration, Placement, VmCatalog
from repro.core.controller import MistralController
from repro.core.estimator import FeedbackUtilityEstimator, UtilityEstimator
from repro.core.feedback import ModelFeedback
from repro.core.hierarchy import ControllerHierarchy
from repro.core.perf_pwr import PerfPwrOptimizer
from repro.core.search import (
    ALL_ACTION_KINDS,
    AdaptationSearch,
    SearchSettings,
)
from repro.core.utility import UtilityModel
from repro.faults import FaultConfig, HostCrash, ScriptedActionFault
from repro.perfmodel.solver import LqnSolver
from repro.testbed.testbed import Testbed, TestbedSettings
from repro.workload.monitor import WorkloadMonitor
from repro.workload.traces import standard_traces

#: Hosts per scenario size.  1-4 apps match Table I; the 5- and 6-app
#: rows extrapolate the paper's 2-hosts-per-app ratio to give the
#: search benchmarks a size where expansion rounds are wide enough for
#: the array kernels to matter.  The 10-25-app tier (20-50 hosts, the ROADMAP
#: north-star scale) exists for the anytime strategies: the exact A*
#: frontier explodes there and only returns a plan by deadline abort,
#: while the annealing walker keeps improving an incumbent
#: (docs/SEARCH_STRATEGIES.md).
HOSTS_FOR_APPS = {
    1: 2, 2: 4, 3: 6, 4: 8, 5: 10, 6: 12,
    10: 20, 16: 32, 25: 50,
}

#: The paper's workload bands per controller level (req/s).
LEVEL1_BAND = 0.0
LEVEL2_BAND = 8.0

#: 1st-level controllers use the quick, local actions (paper §V-E:
#: "uses CPU tuning and VM migrations within its managed subset");
#: replication and host power cycling belong to the 2nd level with its
#: wider band and longer control windows.
LEVEL1_ACTION_KINDS = frozenset({"increase_cpu", "decrease_cpu", "migrate"})


def make_testbed(
    app_count: int = 2,
    seed: int = 0,
    settings: Optional[TestbedSettings] = None,
) -> Testbed:
    """The paper's n-application scenario on its matching host count."""
    if app_count not in HOSTS_FOR_APPS:
        raise ValueError(f"unsupported app_count {app_count}")
    applications = ApplicationSet(
        [
            make_rubis_application(f"RUBiS-{index + 1}")
            for index in range(app_count)
        ]
    )
    traces = standard_traces(applications.names())
    host_ids = [f"host-{index}" for index in range(HOSTS_FOR_APPS[app_count])]
    return Testbed(
        applications,
        traces,
        host_ids,
        seed=seed,
        settings=settings,
    )


def demo_fault_config(
    seed: int = 0, crash_time: float = 3600.0, crash_host: str = "host-3"
) -> FaultConfig:
    """The canonical fault scenario (docs/OPERATIONS.md walkthrough).

    Deterministically fails the first two migration attempts of the run
    (exercising retry + rollback during the controllers' scale-out) and
    crashes one host an hour in, stranding whatever it serves.  No
    random faults, so the run is fully scripted regardless of seed.
    """
    return FaultConfig(
        seed=seed,
        scripted=(
            ScriptedActionFault(kind="migrate", occurrence=0),
            ScriptedActionFault(kind="migrate", occurrence=1),
        ),
        host_crashes=(HostCrash(time=crash_time, host_id=crash_host),),
    )


def level1_host_groups(host_ids: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Partition hosts into 1st-level controller subsets (<=4 hosts)."""
    if len(host_ids) <= 4:
        return [tuple(host_ids)]
    groups = []
    half = (len(host_ids) + 1) // 2
    groups.append(tuple(host_ids[:half]))
    groups.append(tuple(host_ids[half:]))
    return groups


def initial_configuration(testbed: Testbed) -> Configuration:
    """Common starting point: the cost-free optimum at t = 0."""
    optimizer = _global_perf_pwr(testbed)
    return optimizer.optimize(testbed.workloads_at(0.0)).configuration


def _global_perf_pwr(testbed: Testbed) -> PerfPwrOptimizer:
    return PerfPwrOptimizer(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.host_ids,
    )


# ----------------------------------------------------------------------
# Mistral
# ----------------------------------------------------------------------


def build_mistral(
    testbed: Testbed,
    hierarchical: bool = True,
    self_aware: bool = True,
    search_settings: Optional[SearchSettings] = None,
    enable_feedback: bool = True,
    enable_trend: bool = True,
    search_strategy: Optional[str] = None,
) -> tuple[object, Configuration]:
    """Mistral: two-level hierarchy (or a single global controller).

    ``self_aware=False`` builds the Naive-A* variant of Fig. 10;
    ``enable_feedback`` / ``enable_trend`` switch off the online
    model-feedback calibration and the workload-trend extrapolation
    (the ablation benchmarks exercise these).

    ``search_strategy`` selects the search backend every controller
    plans with (``"astar"``/``"annealing"``, DESIGN.md §14; the
    retired ``"mcts"`` selects annealing);
    ``None`` defers to ``SearchSettings.strategy`` and the
    ``MISTRAL_SEARCH_STRATEGY`` environment variable.
    """
    interval = testbed.utility.parameters.monitoring_interval

    # Online model-feedback calibration: Mistral plans against per-app
    # targets tightened by the measured/predicted response-time bias
    # (see repro.core.feedback) — the monitor feeds it measurements
    # every interval, so a persistent model bias cannot park an app
    # just above its target.  Dedicated estimator + optimizer so the
    # feedback never leaks into the baselines.
    if enable_feedback:
        feedback = ModelFeedback()
        base_target = testbed.planning_utility.parameters.target_response_time
        feedback_utility = UtilityModel(
            testbed.planning_utility.parameters,
            target_rt_fn=lambda app, rate: feedback.corrected_target(
                app, base_target
            ),
        )
        estimator = FeedbackUtilityEstimator(
            feedback,
            testbed.model_solver,
            testbed.model_power,
            feedback_utility,
            testbed.catalog,
        )
        optimizer = PerfPwrOptimizer(
            testbed.applications,
            testbed.catalog,
            testbed.limits,
            estimator,
            testbed.host_ids,
        )
    else:
        feedback = None
        estimator = testbed.estimator
        optimizer = _global_perf_pwr(testbed)

    def make_search(kinds, scope) -> AdaptationSearch:
        base = search_settings or SearchSettings()
        settings = replace(
            base, allowed_kinds=frozenset(kinds), self_aware=self_aware
        )
        if not self_aware and search_settings is None:
            # The naive variant has no self-imposed stopping rule; cap
            # its expansions so experiment wall time stays bounded (its
            # virtual search durations still dwarf the self-aware ones).
            settings = replace(settings, max_expansions=2500)
        if search_strategy is not None:
            settings = replace(settings, strategy=search_strategy)
        search = AdaptationSearch(
            testbed.applications,
            testbed.catalog,
            testbed.limits,
            estimator,
            testbed.cost_manager,
            optimizer,
            testbed.host_ids,
            settings,
        )
        if scope is not None:
            search.scope_hosts = frozenset(scope)
        return search

    # The 2nd-level controller plans against at least a few monitoring
    # intervals: during monotone ramps the band escapes every interval
    # and the ARMA estimate collapses to one interval, under which no
    # scale-up would ever recoup its cost.
    level2 = MistralController(
        name="mistral-L2",
        search=make_search(ALL_ACTION_KINDS, None),
        monitor=WorkloadMonitor(band_width=LEVEL2_BAND),
        min_control_window=3.0 * interval,
    )
    level2.feedback = feedback
    level2.trend_extrapolation = enable_trend
    if not hierarchical:
        level2.monitor = WorkloadMonitor(band_width=LEVEL1_BAND)
        return level2, initial_configuration(testbed)

    level1 = [
        MistralController(
            name=f"mistral-L1-{index}",
            search=make_search(LEVEL1_ACTION_KINDS, group),
            monitor=WorkloadMonitor(band_width=LEVEL1_BAND),
            min_control_window=interval,
        )
        for index, group in enumerate(level1_host_groups(testbed.host_ids))
    ]
    for controller in level1:
        controller.trend_extrapolation = enable_trend
    hierarchy = ControllerHierarchy(level1, level2)
    hierarchy.feedback = feedback
    return hierarchy, initial_configuration(testbed)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


def build_perf_pwr(testbed: Testbed) -> tuple[PerfPwrController, Configuration]:
    """Perf-Pwr baseline: chase the cost-free optimum every interval.

    Uses the paper's plain gradient optimizer (without the
    minimal-candidate enhancement reserved for Mistral's heuristic).
    """
    controller = PerfPwrController(
        name="perf-pwr",
        optimizer=PerfPwrOptimizer(
            testbed.applications,
            testbed.catalog,
            testbed.limits,
            testbed.estimator,
            testbed.host_ids,
            consider_minimal_candidate=False,
        ),
        monitor=WorkloadMonitor(band_width=LEVEL1_BAND),
    )
    return controller, initial_configuration(testbed)


def perf_cost_host_assignment(
    testbed: Testbed,
) -> dict[str, tuple[str, ...]]:
    """Two dedicated hosts per application (paper §V-C)."""
    hosts = testbed.host_ids
    assignment = {}
    for index, app_name in enumerate(testbed.applications.names()):
        assignment[app_name] = (hosts[2 * index], hosts[2 * index + 1])
    return assignment


def build_perf_cost(
    testbed: Testbed,
    search_settings: Optional[SearchSettings] = None,
) -> tuple[PerfCostController, Configuration]:
    """Perf-Cost baseline: fixed pools, power-blind utility."""
    assignment = perf_cost_host_assignment(testbed)
    power_free = UtilityModel(
        replace(
            testbed.planning_utility.parameters, cost_per_watt_interval=0.0
        )
    )
    estimator = UtilityEstimator(
        testbed.model_solver, testbed.model_power, power_free, testbed.catalog
    )
    kinds = ALL_ACTION_KINDS - {"power_on", "power_off"}
    base = search_settings or SearchSettings()

    searches = {}
    placements: dict[str, Placement] = {}
    for app_name, app_hosts in assignment.items():
        app = testbed.applications.get(app_name)
        app_catalog = VmCatalog(app.vm_descriptors())
        app_solver = LqnSolver(app_catalog, testbed.model_parameters)
        app_estimator = UtilityEstimator(
            app_solver, testbed.model_power, power_free, app_catalog
        )
        app_optimizer = PerfPwrOptimizer(
            ApplicationSet([app]),
            app_catalog,
            testbed.limits,
            app_estimator,
            app_hosts,
        )
        search = AdaptationSearch(
            ApplicationSet([app]),
            testbed.catalog,
            testbed.limits,
            estimator,
            testbed.cost_manager,
            AppScopedPerfPwr(app_name, app_optimizer),
            testbed.host_ids,
            replace(base, allowed_kinds=frozenset(kinds)),
        )
        search.scope_hosts = frozenset(app_hosts)
        searches[app_name] = search

        # Initial layout: front tiers on the first host, database on
        # the second, every cap at the default 40%.
        placements[f"{app_name}-web-0"] = Placement(app_hosts[0], 0.4)
        placements[f"{app_name}-app-0"] = Placement(app_hosts[0], 0.4)
        placements[f"{app_name}-db-0"] = Placement(app_hosts[1], 0.4)

    controller = PerfCostController(
        name="perf-cost",
        app_searches=searches,
        monitor=WorkloadMonitor(band_width=LEVEL1_BAND),
    )
    initial = Configuration(
        placements,
        frozenset(host for pair in assignment.values() for host in pair),
    )
    return controller, initial


def build_pwr_cost(testbed: Testbed) -> tuple[PwrCostController, Configuration]:
    """Pwr-Cost baseline: static per-rate capacities, cost-aware packing."""
    controller = PwrCostController(
        name="pwr-cost",
        oracle=_global_perf_pwr(testbed),
        catalog=testbed.catalog,
        limits=testbed.limits,
        estimator=testbed.estimator,
        cost_manager=testbed.cost_manager,
        host_ids=testbed.host_ids,
        monitor=WorkloadMonitor(band_width=LEVEL1_BAND),
    )
    return controller, initial_configuration(testbed)
