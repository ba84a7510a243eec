"""Chaos hardening: invariant checker + injected search faults.

The contract under test (DESIGN.md §10): chaos mode injects faults into
the controller's own search — the walkers' evaluation path — and the
hardening layers must absorb them without changing *what* is decided.  Every test here pins a
fault probability to 1.0 (deterministic injection) and asserts the
decision is bit-identical to the fault-free path, plus the referee
(:func:`check_invariants`) that the soak runner applies after every
committed decision.
"""

from __future__ import annotations

import pytest

from repro.core.config import Configuration, Placement
from repro.core.estimator import UtilityEstimator
from repro.core.perf_pwr import PerfPwrOptimizer
from repro.core.search import AdaptationSearch, SearchSettings
from repro.faults import (
    FaultConfig,
    FaultInjector,
    InvariantViolation,
    check_invariants,
)
from repro.testbed.scenarios import initial_configuration

HOST_IDS = ("host-0", "host-1", "host-2", "host-3")

#: Everything a search outcome decides; ``wall_seconds`` is measured
#: time, excluded by the contract.
OUTCOME_FIELDS = (
    "actions",
    "final_configuration",
    "predicted_utility",
    "expansions",
    "decision_seconds",
    "pruning_activated",
    "optimal",
)


def _make_search(testbed, **settings_kwargs) -> AdaptationSearch:
    settings = SearchSettings(
        self_aware=True, incremental=True, **settings_kwargs
    )
    # A private estimator/optimizer pair: the session testbed's memo
    # caches are shared, and warming them with this module's workloads
    # would hide cache misses other test modules assert on.
    estimator = UtilityEstimator(
        testbed.model_solver,
        testbed.model_power,
        testbed.planning_utility,
        testbed.catalog,
    )
    optimizer = PerfPwrOptimizer(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        estimator,
        testbed.host_ids,
    )
    return AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        estimator,
        testbed.cost_manager,
        optimizer,
        testbed.host_ids,
        settings=settings,
    )


def _high_workloads(testbed) -> dict[str, float]:
    return {
        name: 45.0 + 5.0 * index
        for index, name in enumerate(testbed.applications.names())
    }


def _run(search, testbed):
    start = initial_configuration(testbed)
    workloads = _high_workloads(testbed)
    return search.search(start, workloads, 300.0)


def _assert_outcomes_identical(reference, candidate) -> None:
    for field in OUTCOME_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), field


# ---------------------------------------------------------------------------
# the invariant referee
# ---------------------------------------------------------------------------


@pytest.fixture
def clean_configuration(base_configuration):
    return base_configuration


def test_clean_decision_has_no_violations(
    clean_configuration, catalog, limits
):
    assert (
        check_invariants(
            clean_configuration,
            catalog,
            limits,
            host_ids=HOST_IDS,
            utility={"steady": 10.0, "transient": -2.0, "total": 8.0},
        )
        == []
    )


def test_allocation_overcommit_is_flagged(
    clean_configuration, catalog, limits
):
    over = clean_configuration.replace(
        "RUBiS-1-web-0", Placement("host-0", 0.9)
    ).replace("RUBiS-2-web-0", Placement("host-0", 0.9))
    violations = check_invariants(over, catalog, limits)
    assert any(v.name == "allocation" for v in violations)
    assert any("host-0" in v.detail for v in violations)


def test_unpowered_placement_is_flagged(catalog, limits):
    """A corrupt decode path could resurrect a stale powered set via
    pickling (which bypasses ``__init__``) — the referee re-checks."""
    configuration = Configuration(
        {"RUBiS-1-web-0": Placement("host-0", 0.2)}, {"host-0"}
    )
    items, _ = configuration.__getstate__()
    resurrected = Configuration.__new__(Configuration)
    resurrected.__setstate__((items, frozenset({"host-1"})))
    violations = check_invariants(resurrected, catalog, limits)
    assert any(
        v.name == "allocation" and "unpowered" in v.detail
        for v in violations
    )


def test_missing_replica_zero_is_flagged(
    clean_configuration, catalog, limits
):
    broken = clean_configuration.remove("RUBiS-1-app-0").replace(
        "RUBiS-1-app-1", Placement("host-0", 0.2)
    )
    violations = check_invariants(broken, catalog, limits)
    assert [v.name for v in violations] == ["replica_zero"]
    assert "RUBiS-1-app-0" in violations[0].detail


@pytest.mark.parametrize(
    "utility",
    [
        {"steady": 1.0, "transient": 0.5, "total": 2.0},  # leaks utility
        {"steady": 1.0},  # missing Eq. 3 terms
        {"steady": "x", "transient": 0.0, "total": 0.0},  # unparsable
    ],
)
def test_eq3_conservation_violations(
    utility, clean_configuration, catalog, limits
):
    violations = check_invariants(
        clean_configuration, catalog, limits, utility=utility
    )
    assert [v.name for v in violations] == ["conservation"]


def test_eq3_conservation_tolerates_float_slack(
    clean_configuration, catalog, limits
):
    assert (
        check_invariants(
            clean_configuration,
            catalog,
            limits,
            utility={
                "steady": 1e6,
                "transient": 2.0,
                "total": 1e6 + 2.0 + 1e-3,  # within 1e-6 * scale
            },
        )
        == []
    )


def test_no_utility_breakdown_skips_conservation(
    clean_configuration, catalog, limits
):
    assert check_invariants(clean_configuration, catalog, limits) == []


def test_violations_are_counted_and_traced(
    clean_configuration, catalog, limits
):
    from repro import telemetry

    broken = clean_configuration.remove("RUBiS-1-app-0").replace(
        "RUBiS-1-app-1", Placement("host-0", 0.2)
    )
    telemetry.enable()
    try:
        violations = check_invariants(
            broken, catalog, limits, context="unit@t=0"
        )
        counters = telemetry.runtime.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
    assert len(violations) == 1
    assert isinstance(violations[0], InvariantViolation)
    assert counters.get("chaos.invariant_violations") == 1


# ---------------------------------------------------------------------------
# injected search faults: decisions survive bit-identically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("annealing",))
def test_solver_fault_falls_back_to_exact_astar(name, small_testbed):
    """An injected LQN solver failure inside the walker's evaluation path
    must never cost the controller a decision: the dispatcher answers
    with the exact A* incumbent path (which shares none of the walker's
    machinery) and stamps what actually decided."""
    reference = _run(
        _make_search(small_testbed, strategy="astar"), small_testbed
    )

    search = _make_search(small_testbed, strategy=name)
    search.fault_injector = FaultInjector(
        FaultConfig(seed=7, solver_exception_probability=1.0)
    )
    hook_calls: list[str] = []
    search.on_executor_failure = hook_calls.append

    outcome = _run(search, small_testbed)
    assert outcome.strategy == "astar"
    assert hook_calls == ["strategy_failure"]
    assert search.fault_injector.stats.solver_exceptions >= 1
    for field in OUTCOME_FIELDS:
        assert getattr(outcome, field) == getattr(reference, field), field


# ---------------------------------------------------------------------------
# testbed integration: the referee rides along, the clean path is clean
# ---------------------------------------------------------------------------


def test_invariant_checked_run_is_clean_and_bit_identical(small_testbed):
    from repro.testbed import build_mistral

    horizon = 1800.0
    controller, initial = build_mistral(small_testbed)
    plain = small_testbed.run(controller, initial, "x", horizon=horizon)
    controller, initial = build_mistral(small_testbed)
    checked = small_testbed.run(
        controller, initial, "x", horizon=horizon, invariants=True
    )
    assert checked.invariant_violations == []
    assert plain.utility_increments.values == checked.utility_increments.values
    assert plain.power_watts.values == checked.power_watts.values
    assert [
        (record.start, record.end, record.description)
        for record in plain.actions
    ] == [
        (record.start, record.end, record.description)
        for record in checked.actions
    ]
