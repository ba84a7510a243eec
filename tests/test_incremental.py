"""Equivalence tests for the incremental evaluation engine.

The engine's contract is *bit-compatibility*: a delta-solved estimate
and a delta-evaluated search must match the from-scratch path exactly
— same solver outputs, same chosen actions, same predicted utility —
so turning the engine on can never change a controller's decision.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import Configuration, Placement
from repro.core.estimator import FeedbackUtilityEstimator
from repro.core.feedback import ModelFeedback
from repro.core.search import AdaptationSearch, SearchSettings
from repro.perfmodel.solver import pseudo_configuration
from repro.telemetry import runtime as telemetry
from repro.testbed.scenarios import (
    _global_perf_pwr,
    initial_configuration,
    make_testbed,
)


@pytest.fixture(autouse=True)
def _pin_astar_backend(monkeypatch):
    """This suite specifies the A* loop itself; the
    MISTRAL_SEARCH_STRATEGY CI leg must not swap the backend here."""
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY", raising=False)



CAP_STEPS = tuple(round(0.1 * step, 10) for step in range(1, 11))


def _random_step(rng, configuration, catalog):
    """One random structural edit; returns (child, changed VM ids).

    Draws from the same move set the adaptation actions produce: cap
    change, migration, replica removal, replica activation, and host
    power-on (which moves no VM — the delta contract's empty case).
    """
    placed = list(configuration.placed_vm_ids())
    powered = sorted(configuration.powered_hosts)
    dormant = [
        vm_id
        for vm_id in catalog.vm_ids()
        if not configuration.is_placed(vm_id)
    ]
    unpowered = sorted(
        {f"host-{index}" for index in range(4)} - configuration.powered_hosts
    )
    ops = ["cap", "migrate"]
    if len(placed) > 1:
        ops.append("remove")
    if dormant:
        ops.append("add")
    if unpowered:
        ops.append("power_on")
    op = rng.choice(ops)
    if op == "cap":
        vm_id = rng.choice(placed)
        placement = configuration.placement_of(vm_id)
        child = configuration.replace(
            vm_id, placement.with_cap(rng.choice(CAP_STEPS))
        )
        return child, (vm_id,)
    if op == "migrate":
        vm_id = rng.choice(placed)
        placement = configuration.placement_of(vm_id)
        child = configuration.replace(
            vm_id, Placement(rng.choice(powered), placement.cpu_cap)
        )
        return child, (vm_id,)
    if op == "remove":
        vm_id = rng.choice(placed)
        return configuration.remove(vm_id), (vm_id,)
    if op == "add":
        vm_id = rng.choice(dormant)
        child = configuration.replace(
            vm_id, Placement(rng.choice(powered), rng.choice(CAP_STEPS))
        )
        return child, (vm_id,)
    return configuration.power_on(rng.choice(unpowered)), ()


def _assert_estimates_identical(delta, full):
    """Bit-exact equality of two ``PerformanceEstimate`` objects."""
    assert delta.response_times == full.response_times
    assert delta.tier_utilizations == full.tier_utilizations
    assert delta.vm_utilizations == full.vm_utilizations
    assert delta.host_utilizations == full.host_utilizations
    assert delta.saturated_apps == full.saturated_apps


# -- solver: delta chain vs. fresh solves --------------------------------------


@pytest.mark.perf_smoke
@pytest.mark.parametrize("seed", range(24))
def test_solver_delta_chain_matches_full_solve(
    seed, solver, catalog, base_configuration
):
    """A random walk of single-VM edits, delta-solved along the chain,
    reproduces every fresh solve bit for bit (24 randomized configs)."""
    rng = random.Random(seed)
    workloads = {
        "RUBiS-1": rng.uniform(5.0, 60.0),
        "RUBiS-2": rng.uniform(5.0, 60.0),
    }
    configuration = base_configuration
    state = solver.solve_state(configuration, workloads)
    _assert_estimates_identical(
        state.estimate, solver.solve(configuration, workloads)
    )
    for _ in range(6):
        configuration, changed = _random_step(rng, configuration, catalog)
        state = solver.update_state(state, configuration, workloads, changed)
        assert state.configuration == configuration
        _assert_estimates_identical(
            state.estimate, solver.solve(configuration, workloads)
        )


def _caps(configuration):
    """The capacity plan of ``configuration``: each placed VM's cap."""
    return {
        vm_id: placement.cpu_cap
        for vm_id, placement in configuration.placement_items()
    }


@pytest.mark.perf_smoke
@pytest.mark.parametrize("seed", range(8))
def test_solve_move_matches_delta_solve(
    seed, solver, catalog, base_configuration
):
    """Re-solving one moved VM's tier off a capacity plan gives the tier
    solution and response time the delta solve of the moved plan's
    pseudo-configuration holds, bit for bit, along a random walk that
    shares one tier-solve memo (one workload vector)."""
    rng = random.Random(seed)
    workloads = {
        "RUBiS-1": rng.uniform(5.0, 60.0),
        "RUBiS-2": rng.uniform(5.0, 60.0),
    }
    configuration = base_configuration
    caps = _caps(configuration)
    state = solver.solve_state(pseudo_configuration(caps), workloads)
    solved = {}
    for _ in range(6):
        configuration, changed = _random_step(rng, configuration, catalog)
        moved_caps = _caps(configuration)
        moved = solver.update_state(
            state, pseudo_configuration(moved_caps), workloads, changed
        )
        for vm_id in changed:
            descriptor = catalog.get(vm_id)
            solution, response = solver.solve_move(
                caps,
                state.tiers,
                workloads,
                vm_id,
                moved_caps.get(vm_id),
                solved,
            )
            key = (descriptor.app_name, descriptor.tier_name)
            assert solution == moved.tiers[key]
            assert (
                response.hex()
                == moved.estimate.response_times[descriptor.app_name].hex()
            )
        caps, state = moved_caps, moved


@pytest.mark.perf_smoke
def test_solve_host_utilizations_cover_exactly_the_powered_hosts(
    solver, base_configuration
):
    """The host-busy seeding contract: one entry per powered host, no
    more — idle powered hosts report 0.0, unpowered hosts are absent."""
    configuration = base_configuration.power_on("host-2")
    workloads = {"RUBiS-1": 20.0, "RUBiS-2": 20.0}
    estimate = solver.solve(configuration, workloads)
    assert set(estimate.host_utilizations) == configuration.powered_hosts
    assert estimate.host_utilizations["host-2"] == 0.0
    assert estimate.host_utilizations["host-0"] > 0.0
    assert estimate.host_utilizations["host-1"] > 0.0
    assert "host-3" not in estimate.host_utilizations

    # The delta path composes hosts the same way: power-on with no VM
    # moved adds exactly the idle entry.
    state = solver.solve_state(base_configuration, workloads)
    updated = solver.update_state(state, configuration, workloads, ())
    _assert_estimates_identical(updated.estimate, estimate)


# -- search: incremental vs. full evaluation -----------------------------------


@pytest.fixture(scope="module")
def _search_pair():
    """Two independent testbeds + searches, one per evaluation path.

    Separate testbeds keep the estimator caches disjoint, so the full
    path cannot silently reuse results the incremental path produced
    (which would make the comparison vacuous).
    """

    def build(incremental):
        testbed = make_testbed(2, seed=0)

        def searcher(settings_kwargs):
            return AdaptationSearch(
                testbed.applications,
                testbed.catalog,
                testbed.limits,
                testbed.estimator,
                testbed.cost_manager,
                _global_perf_pwr(testbed),
                testbed.host_ids,
                settings=SearchSettings(
                    incremental=incremental, **settings_kwargs
                ),
            )

        return testbed, searcher

    return build(True), build(False)


@pytest.mark.parametrize("seed", range(20))
def test_search_incremental_matches_full_evaluation(seed, _search_pair):
    """20 randomized scenarios: the incremental engine picks the exact
    same plan at the exact same predicted utility as full evaluation."""
    (inc_testbed, inc_build), (full_testbed, full_build) = _search_pair
    rng = random.Random(1000 + seed)
    settings_kwargs = {
        "self_aware": bool(seed % 2),
        "seed_with_plan": seed % 3 != 0,
        "max_expansions": 30,
    }
    names = [app.name for app in inc_testbed.applications]
    workloads = {
        name: rng.uniform(10.0, 55.0) for name in names
    }
    # Same perturbed start on both sides (the catalogs are identical).
    start = initial_configuration(inc_testbed)
    for _ in range(rng.randrange(0, 3)):
        start, _ = _random_step(rng, start, inc_testbed.catalog)

    inc_outcome = inc_build(settings_kwargs).search(start, workloads, 300.0)
    full_outcome = full_build(settings_kwargs).search(start, workloads, 300.0)

    assert inc_outcome.actions == full_outcome.actions
    assert (
        abs(inc_outcome.predicted_utility - full_outcome.predicted_utility)
        <= 1e-9
    )
    assert inc_outcome.expansions == full_outcome.expansions
    assert inc_outcome.final_configuration == full_outcome.final_configuration


@pytest.mark.perf_smoke
@pytest.mark.parametrize("strategy", ["astar", "annealing"])
def test_incremental_engine_engages_on_the_search_hot_path(
    strategy, monkeypatch
):
    """The delta estimator path actually serves search evaluations.

    The walker scores every child on it: at least 90% of its new
    estimator evaluations are incremental, and the shared prediction
    memo answers all but a few percent of the cost lookups of the
    children it builds.

    The testbed is private: the shared session testbed may already hold
    every estimate this search needs (other suites run the same start
    and workloads), which would leave the delta path nothing to do."""
    testbed = make_testbed(app_count=2, seed=0)
    predictions = []
    predict = testbed.cost_manager.predict

    def counted_predict(*args):
        predictions.append(args)
        return predict(*args)

    monkeypatch.setattr(testbed.cost_manager, "predict", counted_predict)
    search = AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=SearchSettings(
            self_aware=True, incremental=True, strategy=strategy
        ),
    )
    names = [app.name for app in testbed.applications]
    workloads = {
        name: 45.0 + 5.0 * index for index, name in enumerate(names)
    }
    estimator = testbed.estimator
    evaluations_before = estimator.evaluations
    before = estimator.incremental_evaluations
    telemetry.enable(collect_provenance=False)
    try:
        outcome = search.search(
            initial_configuration(testbed), workloads, 300.0
        )
        counters = telemetry.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
    assert outcome.actions  # high load forces a real adaptation
    incremental = estimator.incremental_evaluations - before
    assert incremental > 0
    if strategy != "astar":
        evaluations = estimator.evaluations - evaluations_before
        assert incremental >= 0.9 * evaluations
        # One cost lookup per child the walker builds.
        lookups = counters["costmodel.predictions"] + counters.get(
            "costmodel.memo_hits", 0
        )
        assert len(predictions) < 0.05 * lookups


# -- estimator: feedback-keyed invalidation ------------------------------------


@pytest.mark.perf_smoke
def test_feedback_version_bump_invalidates_cached_estimates(
    solver, power_models, utility, catalog, base_configuration
):
    feedback = ModelFeedback()
    estimator = FeedbackUtilityEstimator(
        feedback, solver, power_models, utility, catalog
    )
    workloads = {"RUBiS-1": 20.0, "RUBiS-2": 20.0}

    first = estimator.estimate(base_configuration, workloads)
    assert estimator.evaluations == 1
    assert estimator.estimate(base_configuration, workloads) is first
    assert estimator.evaluations == 1  # pure cache hit

    # Measured response times persistently above predictions: the bias
    # estimate moves, the version bumps, and the old key goes stale —
    # no explicit cache clear anywhere.
    feedback.observe({"RUBiS-1": 1.0}, {"RUBiS-1": 0.5})
    assert feedback.version == 1
    fresh = estimator.estimate(base_configuration, workloads)
    assert estimator.evaluations == 2
    assert fresh is not first
