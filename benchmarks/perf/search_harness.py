"""Micro-benchmarks for the adaptation-search hot path.

Times (a) the naive and self-aware A* searches, with the incremental
evaluation engine on and off, and (b) raw solver throughput — full
:meth:`LqnSolver.solve` calls vs. incremental child evaluations via
:meth:`LqnSolver.update_state` — at the paper's three system sizes
(2 apps / 4 hosts, 3 / 6, 4 / 8; Table I).

``scripts/run_benchmarks.py`` drives this module and writes
``BENCH_search.json`` at the repository root; see DESIGN.md's
"Performance architecture" section for how to read the file.

Methodology: every search starts from the consolidated t=0
configuration and plans toward a high-load workload vector (45+ req/s
per app), which forces a real adaptation search (dozens to thousands
of expansions) instead of the "already ideal" early return.  The ideal
(`perf_pwr.optimize`) is warmed outside the timed region — it is shared
state across controllers in production, not part of one search's cost.
Each scenario runs ``runs`` times with slightly different workloads so
no run is a pure cache replay; both wall-clock and process-CPU times
are recorded (process time is steadier on busy machines).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping, Optional

from repro.core.config import Configuration
from repro.core.search import AdaptationSearch, SearchSettings
from repro.perfmodel.solver import LqnSolver
from repro.testbed.scenarios import (
    _global_perf_pwr,
    initial_configuration,
    make_testbed,
)

# The harness measures whatever ``repro`` package is on sys.path — it
# is also pointed at pre-incremental-engine checkouts to (re)record the
# baseline — so feature-gate the knobs that did not exist back then.
_SETTINGS_FIELDS = {
    field.name for field in dataclasses.fields(SearchSettings)
}

#: The paper's scenario sizes (app count -> hosts is fixed by Table I).
SYSTEM_SIZES = (2, 3, 4)

#: Baseline per-app demand (req/s) for the benchmark searches; run ``r``
#: probes ``HIGH_RATE + 5*app_index + r`` so runs are distinct.
HIGH_RATE = 45.0

#: Above 4 apps the ``HIGH_RATE`` vector saturates the cluster: the
#: perf-pwr-seeded plan is accepted with zero expansions and the
#: benchmark would time an early return.  Large scenarios probe a
#: mid-band vector instead, which keeps every run a real multi-round
#: search.  (The recorded baselines only cover sizes 2-4, so the
#: historical formula is frozen for those.)
LARGE_RATE = 18.0
LARGE_STEP = 2.5


def _workloads(names: list[str], run: int) -> dict[str, float]:
    if len(names) <= 4:
        base, step = HIGH_RATE, 5.0
    else:
        base, step = LARGE_RATE, LARGE_STEP
    return {
        name: base + step * index + run
        for index, name in enumerate(names)
    }


def bench_search(
    app_count: int,
    self_aware: bool,
    incremental: bool,
    runs: int = 5,
    window: float = 300.0,
    strategy: Optional[str] = None,
    deadline_seconds: Optional[float] = None,
) -> dict:
    """Mean/min time of one adaptation search at one system size.

    ``strategy`` pins the search backend (DESIGN.md §14): ``"astar"``
    to shield the measurement from the ``MISTRAL_SEARCH_STRATEGY``
    environment, or a walker name to time its anytime behavior —
    optionally under ``deadline_seconds``, in which case the row also
    tallies watchdog aborts and the incumbent utility the walker held
    when the deadline hit.
    """
    testbed = make_testbed(app_count, seed=0)
    settings_kwargs = {"self_aware": self_aware}
    if not self_aware:
        # The naive variant has no self-imposed stopping rule; cap its
        # expansions the same way scenarios.build_mistral does so the
        # benchmark measures cost-per-search, not the cap-free blowup.
        settings_kwargs["max_expansions"] = 2500
    if "incremental" in _SETTINGS_FIELDS:
        settings_kwargs["incremental"] = incremental
    if strategy is not None:
        if "strategy" not in _SETTINGS_FIELDS:
            raise ValueError(
                "this checkout predates pluggable search strategies"
            )
        settings_kwargs["strategy"] = strategy
    if deadline_seconds is not None and "deadline_seconds" in _SETTINGS_FIELDS:
        settings_kwargs["deadline_seconds"] = deadline_seconds
    search = AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=SearchSettings(**settings_kwargs),
    )
    names = [app.name for app in testbed.applications]
    start = initial_configuration(testbed)
    wall: list[float] = []
    cpu: list[float] = []
    utilities: list[float] = []
    expansions = 0
    evaluations = 0
    deadline_aborts = 0
    for run in range(runs):
        workloads = _workloads(names, run)
        search.perf_pwr.optimize(workloads)  # warm the shared ideal
        eval_before = testbed.estimator.evaluations
        wall_0 = time.perf_counter()
        cpu_0 = time.process_time()
        outcome = search.search(start, workloads, window)
        cpu.append(time.process_time() - cpu_0)
        wall.append(time.perf_counter() - wall_0)
        expansions += outcome.expansions
        evaluations += testbed.estimator.evaluations - eval_before
        # float() drops the array-core's numpy scalar so the row stays
        # JSON-serializable.
        utilities.append(float(outcome.predicted_utility))
        if getattr(outcome, "deadline_aborted", False):
            deadline_aborts += 1
    return {
        "app_count": app_count,
        "host_count": len(testbed.host_ids),
        "self_aware": self_aware,
        "incremental": incremental,
        "strategy": strategy,
        "deadline_seconds": deadline_seconds,
        "runs": runs,
        "mean_search_seconds": sum(wall) / runs,
        "min_search_seconds": min(wall),
        "mean_cpu_seconds": sum(cpu) / runs,
        "mean_predicted_utility": sum(utilities) / runs,
        "deadline_aborts": deadline_aborts,
        "total_expansions": expansions,
        "total_estimator_evaluations": evaluations,
        "incremental_evaluations": getattr(
            testbed.estimator, "incremental_evaluations", 0
        ),
    }


def bench_solver(app_count: int, seconds: float = 1.0) -> dict:
    """Full-solve vs. incremental child-evaluation solver throughput.

    The incremental loop mimics the search's inner step: from one
    parent solve state, evaluate a stream of one-VM cap changes via
    :meth:`LqnSolver.update_state`.
    """
    testbed = make_testbed(app_count, seed=0)
    solver: LqnSolver = testbed.estimator.solver
    names = [app.name for app in testbed.applications]
    workloads = _workloads(names, 0)
    configuration = initial_configuration(testbed)

    def child_of(base: Configuration, index: int) -> tuple[Configuration, str]:
        vm_ids = base.placed_vm_ids()
        vm_id = vm_ids[index % len(vm_ids)]
        placement = base.placement_of(vm_id)
        cap = 0.3 if placement.cpu_cap != 0.3 else 0.4
        return base.replace(vm_id, placement.with_cap(cap)), vm_id

    # Full solves.
    full_calls = 0
    deadline = time.perf_counter() + seconds
    cpu_0 = time.process_time()
    while time.perf_counter() < deadline:
        child, _ = child_of(configuration, full_calls)
        solver.solve(child, workloads)
        full_calls += 1
    full_cpu = time.process_time() - cpu_0

    # Incremental child evaluations off one parent state (absent on
    # pre-incremental-engine checkouts the baseline is measured from).
    incremental_rate: Optional[float] = None
    if hasattr(solver, "solve_state"):
        state = solver.solve_state(configuration, workloads)
        incremental_calls = 0
        deadline = time.perf_counter() + seconds
        cpu_0 = time.process_time()
        while time.perf_counter() < deadline:
            child, vm_id = child_of(configuration, incremental_calls)
            solver.update_state(state, child, workloads, (vm_id,))
            incremental_calls += 1
        incremental_cpu = time.process_time() - cpu_0
        if incremental_cpu > 0:
            incremental_rate = incremental_calls / incremental_cpu

    return {
        "app_count": app_count,
        "host_count": len(testbed.host_ids),
        "full_solves_per_cpu_second": (
            full_calls / full_cpu if full_cpu > 0 else None
        ),
        "incremental_evals_per_cpu_second": incremental_rate,
    }


def capture_metrics(app_count: int = 2, runs: int = 2) -> Optional[dict]:
    """Telemetry snapshot of an instrumented, *untimed* search pass.

    Runs on a fresh testbed/search — reusing the timed benchmark's
    objects would replay warm caches and inflate the hit ratios — and
    with telemetry enabled, which the timed passes never are (their
    numbers must stay comparable to uninstrumented baselines).  Returns
    ``None`` on checkouts that predate ``repro.telemetry``.
    """
    try:
        from repro.telemetry import runtime as telemetry
    except ImportError:  # pre-telemetry baseline checkout
        return None
    testbed = make_testbed(app_count, seed=0)
    settings_kwargs: dict = {"self_aware": True}
    if "incremental" in _SETTINGS_FIELDS:
        settings_kwargs["incremental"] = True
    if "strategy" in _SETTINGS_FIELDS:
        # The captured ratios (prune rate, cache hits) describe the A*
        # loop; shield them from MISTRAL_SEARCH_STRATEGY environments.
        settings_kwargs["strategy"] = "astar"
    search = AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=SearchSettings(**settings_kwargs),
    )
    names = [app.name for app in testbed.applications]
    start = initial_configuration(testbed)
    telemetry.enable()  # in-memory sink; events are discarded below
    try:
        for run in range(runs):
            workloads = _workloads(names, run)
            search.perf_pwr.optimize(workloads)
            search.search(start, workloads, 300.0)
        snapshot = telemetry.registry.snapshot()
    finally:
        telemetry.disable()

    counters = snapshot["counters"]
    caches = snapshot["caches"]

    def hit_ratio(name: str) -> Optional[float]:
        stats = caches.get(name)
        if not stats:
            return None
        total = stats["hits"] + stats["misses"]
        return stats["hits"] / total if total else None

    generated = counters.get("search.children_generated", 0)
    pruned = counters.get("search.children_pruned", 0)
    evaluations = counters.get("estimator.evaluations", 0)
    return {
        "app_count": app_count,
        "host_count": len(testbed.host_ids),
        "runs": runs,
        "derived": {
            "prune_rate": (
                pruned / (generated + pruned) if generated + pruned else None
            ),
            "estimator_cache_hit_ratio": hit_ratio("estimator.steady"),
            "incremental_evaluation_share": (
                counters.get("estimator.incremental_evaluations", 0)
                / evaluations
                if evaluations
                else None
            ),
        },
        "snapshot": snapshot,
    }


def run_suite(
    sizes: tuple[int, ...] = SYSTEM_SIZES,
    runs: int = 5,
    incremental_only: bool = False,
    metrics_size: Optional[int] = None,
    strategy: Optional[str] = None,
    strategy_deadline: Optional[float] = None,
) -> dict:
    """The full benchmark payload: searches, solver throughput, and an
    instrumented metrics capture.

    ``incremental_only`` skips the (slower) full-evaluation search
    variants — useful for a quick look at the current numbers.
    ``metrics_size`` picks the scenario the instrumented telemetry pass runs at
    (default: the smallest benchmarked size).

    ``strategy`` adds one anytime-walker column per scenario (labelled
    by the strategy name, with a ``_deadline`` suffix when
    ``strategy_deadline`` caps the wall clock) so the recorded file
    tracks the walkers' time/quality next to the exact searches.
    """
    searches: dict[str, dict] = {}
    for app_count in sizes:
        scenario: dict[str, dict] = {}
        for self_aware in (False, True):
            label = "self_aware" if self_aware else "naive"
            scenario[label] = bench_search(
                app_count, self_aware, incremental=True, runs=runs
            )
            if not incremental_only:
                scenario[f"{label}_full_eval"] = bench_search(
                    app_count, self_aware, incremental=False, runs=runs
                )
        if strategy is not None:
            column = (
                strategy
                if strategy_deadline is None
                else f"{strategy}_deadline"
            )
            scenario[column] = bench_search(
                app_count,
                self_aware=True,
                incremental=True,
                runs=runs,
                strategy=strategy,
                deadline_seconds=strategy_deadline,
            )
        searches[f"apps-{app_count}"] = scenario
    solver = {
        f"apps-{app_count}": bench_solver(app_count) for app_count in sizes
    }
    return {
        "search": searches,
        "solver": solver,
        "metrics": capture_metrics(
            app_count=metrics_size if metrics_size is not None else min(sizes)
        ),
    }


def summarize_speedup(
    current: Mapping[str, Mapping[str, Mapping[str, float]]],
    baseline: Mapping[str, Mapping[str, Mapping[str, float]]],
) -> dict:
    """Per-scenario baseline/current ratios of mean search seconds."""
    speedups: dict[str, dict[str, Optional[float]]] = {}
    for scenario, variants in current.items():
        base_scenario = baseline.get(scenario, {})
        entry: dict[str, Optional[float]] = {}
        for label in ("naive", "self_aware"):
            now = variants.get(label, {}).get("mean_search_seconds")
            then = base_scenario.get(label, {}).get("mean_search_seconds")
            entry[label] = (then / now) if now and then else None
        speedups[scenario] = entry
    return speedups
