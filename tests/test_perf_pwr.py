"""Tests for the Perf-Pwr optimizer."""

import dataclasses
import random
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.application import Application, ApplicationSet
from repro.apps.rubis import make_rubis_application
from repro.core.estimator import UtilityEstimator
from repro.core.perf_pwr import CapacityPlan, PerfPwrOptimizer
from repro.core.utility import UtilityModel
from repro.perfmodel.lqn import parameters_for
from repro.perfmodel.solver import LqnSolver, pseudo_configuration
from repro.power.model import HostPowerModel, SystemPowerModel
from repro.telemetry import runtime
from repro.telemetry.trace import RingBufferSink


# -- CapacityPlan ----------------------------------------------------------------


def test_capacity_plan_operations():
    plan = CapacityPlan({"a": 0.4, "b": 0.3})
    assert plan.total_cap() == pytest.approx(0.7)
    reduced = plan.reduce_cap("a", 0.1)
    assert reduced.caps["a"] == pytest.approx(0.3)
    dropped = plan.drop_vm("b")
    assert "b" not in dropped.caps
    # original untouched
    assert plan.caps == {"a": 0.4, "b": 0.3}


# -- optimize ----------------------------------------------------------------------


def test_optimal_config_is_feasible(optimizer, catalog, limits):
    result = optimizer.optimize({"RUBiS-1": 50.0, "RUBiS-2": 50.0})
    assert result.configuration.is_candidate(catalog, limits)


def test_low_load_consolidates_to_fewer_hosts(optimizer):
    low = optimizer.optimize({"RUBiS-1": 10.0, "RUBiS-2": 10.0})
    high = optimizer.optimize({"RUBiS-1": 95.0, "RUBiS-2": 90.0})
    assert low.hosts_used <= 2
    assert high.hosts_used >= 3
    assert len(low.configuration.powered_hosts) <= len(
        high.configuration.powered_hosts
    )


def test_high_load_meets_planning_target(optimizer, estimator):
    workloads = {"RUBiS-1": 90.0, "RUBiS-2": 85.0}
    result = optimizer.optimize(workloads)
    utility = estimator.utility
    for app, rate in workloads.items():
        assert result.estimate.response_times[app] <= utility.target_response_time(
            app, rate
        )


def test_ideal_rate_combines_perf_and_power(optimizer):
    result = optimizer.optimize({"RUBiS-1": 40.0, "RUBiS-2": 40.0})
    assert result.ideal_rate == pytest.approx(
        result.perf_rate + result.power_rate
    )
    assert result.power_rate < 0


def test_alternatives_cover_host_counts(optimizer):
    result = optimizer.optimize({"RUBiS-1": 60.0, "RUBiS-2": 55.0})
    assert result in result.alternatives or any(
        alt.configuration == result.configuration
        for alt in result.alternatives
    )
    assert len(result.alternatives) >= 2
    assert all(
        alt.ideal_rate <= result.ideal_rate + 1e-12
        for alt in result.alternatives
    )


def test_optimize_is_memoized(optimizer):
    first = optimizer.optimize({"RUBiS-1": 42.0, "RUBiS-2": 17.0})
    second = optimizer.optimize({"RUBiS-1": 42.0, "RUBiS-2": 17.0})
    assert second is first


def test_every_tier_keeps_minimum_replicas(optimizer, catalog, apps):
    result = optimizer.optimize({"RUBiS-1": 30.0, "RUBiS-2": 70.0})
    for app in apps:
        for tier in app.tiers:
            placed = result.configuration.replica_count(
                catalog, app.name, tier.name
            )
            assert placed >= tier.min_replicas


# -- minimal capacities ---------------------------------------------------------------


def test_minimal_capacities_meet_targets(optimizer, estimator, catalog):
    from repro.core.config import Configuration, Placement

    workloads = {"RUBiS-1": 70.0, "RUBiS-2": 65.0}
    plan = optimizer.minimal_capacities(workloads)
    # Evaluate the plan on pseudo hosts: caps determine response times.
    config = Configuration(
        {vm: Placement(f"p-{vm}", cap) for vm, cap in plan.caps.items()},
        {f"p-{vm}" for vm in plan.caps},
    )
    performance = estimator.solver.solve(config, workloads)
    utility = estimator.utility
    for app, rate in workloads.items():
        assert performance.response_times[app] <= utility.target_response_time(
            app, rate
        )


def test_minimal_capacities_smaller_at_lower_load(optimizer):
    low = optimizer.minimal_capacities({"RUBiS-1": 20.0, "RUBiS-2": 20.0})
    high = optimizer.minimal_capacities({"RUBiS-1": 90.0, "RUBiS-2": 90.0})
    assert low.total_cap() < high.total_cap()


def test_minimal_capacities_memoized(optimizer):
    a = optimizer.minimal_capacities({"RUBiS-1": 33.0, "RUBiS-2": 44.0})
    b = optimizer.minimal_capacities({"RUBiS-1": 33.0, "RUBiS-2": 44.0})
    assert b is a


# -- packing ------------------------------------------------------------------------


def test_pack_respects_limits(optimizer, catalog, limits):
    plan = CapacityPlan(
        {descriptor.vm_id: 0.2 for descriptor in catalog}
    )
    packed = optimizer._pack(plan, optimizer.host_ids)
    assert packed is not None
    assert packed.is_candidate(catalog, limits)


def test_pack_fails_when_capacity_insufficient(optimizer, catalog):
    plan = CapacityPlan(
        {descriptor.vm_id: 0.8 for descriptor in catalog}
    )
    # 10 VMs x 0.8 = 8.0 total demand > 4 hosts x 0.8 = 3.2.
    assert optimizer._pack(plan, optimizer.host_ids) is None


def test_pack_prefers_fewest_hosts_needed(optimizer, catalog):
    plan = CapacityPlan({"RUBiS-1-web-0": 0.2, "RUBiS-1-db-0": 0.2})
    packed = optimizer._pack(plan, optimizer.host_ids)
    assert packed is not None
    assert len(packed.powered_hosts) == 1


def test_min_hosts_threshold(optimizer):
    # 6 minimum VMs at 0.2 cap => at least 2 hosts (cpu bound 1.5 -> 2).
    assert optimizer._min_hosts() == 2


def test_empty_host_list_rejected(apps, catalog, limits, estimator):
    with pytest.raises(ValueError):
        PerfPwrOptimizer(apps, catalog, limits, estimator, [])


# -- spliced gradient vs. full-solve oracle ----------------------------------------

#: The three optimizer variants the controllers and baselines build.
VARIANTS = {
    "default": {},
    "plain-gradient": {"consider_minimal_candidate": False},
    "pwr-cost": {"min_cap_for_target": True},
}


@pytest.fixture(scope="module")
def testbed_apps4():
    from repro.testbed import make_testbed

    return make_testbed(4, seed=0)


def _three_replica_args(limits, host_ids):
    """Constructor arguments of an optimizer over two RUBiS
    applications, the first with a Tomcat tier of up to three replicas,
    so that dropping its highest replica leaves a drop move for the
    tier (no RUBiS tier has more than two)."""
    rubis = make_rubis_application("RUBiS-1")
    applications = ApplicationSet(
        [
            Application(
                rubis.name,
                [
                    dataclasses.replace(tier, max_replicas=3)
                    if tier.name == "app"
                    else tier
                    for tier in rubis.tiers
                ],
                rubis.transactions,
            ),
            make_rubis_application("RUBiS-2"),
        ]
    )
    catalog = applications.build_catalog()
    estimator = UtilityEstimator(
        LqnSolver(catalog, parameters_for(applications)),
        SystemPowerModel.uniform(host_ids, HostPowerModel()),
        UtilityModel(),
        catalog,
    )
    return applications, catalog, limits, estimator, host_ids


@pytest.fixture(params=["apps2", "apps4", "apps2-tomcat3"])
def optimizer_args(request, apps, catalog, limits, estimator, optimizer):
    """Constructor arguments of an optimizer over the 2-app fixture, the
    4-app / 8-host testbed, or the 2-app fixture with a three-replica
    Tomcat tier."""
    if request.param == "apps2":
        return apps, catalog, limits, estimator, optimizer.host_ids
    if request.param == "apps2-tomcat3":
        return _three_replica_args(limits, optimizer.host_ids)
    testbed = request.getfixturevalue("testbed_apps4")
    return (
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.host_ids,
    )


def _ideal_records(optimizer_args, options, workload_vectors):
    """Everything a fresh optimizer returns for each workload vector,
    with the plans it scored and the steps it took.  The estimator's
    memo is cleared first so ``evaluations`` counts from cold."""
    optimizer = PerfPwrOptimizer(*optimizer_args, **options)
    optimizer.estimator.clear_cache()
    records = []
    for workloads in workload_vectors:
        plans_scored, steps = optimizer.plans_scored, optimizer.steps
        result = optimizer.optimize(workloads)
        records.append(
            (
                [
                    (
                        alternative.configuration,
                        alternative.perf_rate.hex(),
                        alternative.power_rate.hex(),
                        alternative.hosts_used,
                    )
                    for alternative in [result, *result.alternatives]
                ],
                optimizer.minimal_capacities(workloads).caps,
                result.evaluations,
                optimizer.plans_scored - plans_scored,
                optimizer.steps - steps,
            )
        )
    return records


def _moved_plan(plan, move):
    """The plan ``move`` leads to from ``plan``: the moved VM at its new
    cap, or without it when the cap is ``None``."""
    vm_id, cap = move
    if cap is None:
        return CapacityPlan(
            {
                member: value
                for member, value in plan.caps.items()
                if member != vm_id
            }
        )
    return CapacityPlan({**plan.caps, vm_id: cap})


def _full_solve_score(optimizer, parent, move):
    """Score a move from a full solve of its moved plan's
    pseudo-configuration: busy CPU, performance utility rate and target
    check read off the whole estimate, as a from-scratch evaluation
    would."""
    optimizer.plans_scored += 1
    plan = _moved_plan(parent.plan, move)
    workloads = parent.workloads
    estimate = optimizer.estimator.solver.solve_state(
        pseudo_configuration(plan.caps), workloads
    ).estimate
    utility = optimizer.estimator.utility
    response_times = estimate.response_times
    busy = sum(
        min(rho, 1.0) * plan.caps[vm_id]
        for vm_id, rho in estimate.vm_utilizations.items()
    )
    perf_rate = sum(
        utility.perf_utility_rate(app, rate, response_times[app])
        for app, rate in workloads.items()
    )
    meets = all(
        response_times[app] <= utility.target_response_time(app, rate)
        for app, rate in workloads.items()
    )
    return busy, perf_rate, meets


def _full_solve_view(optimizer, parent, move):
    """The view of the plan ``move`` leads to from ``parent``, from a
    full solve of its moved plan's pseudo-configuration decomposed as a
    walk's root is (its move list built afresh by ``_moves``), with the
    targets computed afresh."""
    plan = _moved_plan(parent.plan, move)
    workloads = parent.workloads
    utility = optimizer.estimator.utility
    return optimizer._view(
        plan,
        optimizer.estimator.solver.solve_state(
            pseudo_configuration(plan.caps), workloads
        ),
        workloads,
        {
            app: utility.target_response_time(app, rate)
            for app, rate in workloads.items()
        },
        parent.solved,
    )


def _full_solve_commit(optimizer, parent, move):
    """Take a step by a full solve of its plan (see ``_full_solve_view``)."""
    optimizer.steps += 1
    return _full_solve_view(optimizer, parent, move)


def _workload_vectors(applications, seed, count):
    """``count`` seeded workload vectors, then two that leave the first
    application out."""
    rng = random.Random(seed)
    workload_vectors = [
        {name: rng.uniform(5.0, 95.0) for name in applications.names()}
        for _ in range(count)
    ]
    first = applications.names()[0]
    return workload_vectors + [
        {name: rate for name, rate in workloads.items() if name != first}
        for workloads in workload_vectors[:2]
    ]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_delta_solved_ideal_matches_full_solve_oracle(
    optimizer_args, variant, monkeypatch
):
    """Scoring each gradient move by re-solving the one tier it changes
    (or taking that tier's solution from the workload vector's
    tier-solve memo), and committing the chosen one by splicing that
    tier solve into the parent's view and updating the kept move list,
    gives bit for bit the ideal of full solves: the same configuration,
    rates and host count, every alternative, the same minimal
    capacities, plans scored and steps, on 20 seeded workload vectors
    and two that leave the first application out."""
    workload_vectors = _workload_vectors(optimizer_args[0], 13, 20)
    options = VARIANTS[variant]
    spliced = _ideal_records(optimizer_args, options, workload_vectors)
    monkeypatch.setattr(PerfPwrOptimizer, "_score", _full_solve_score)
    monkeypatch.setattr(
        PerfPwrOptimizer,
        "_meets",
        lambda optimizer, parent, move: (
            _full_solve_score(optimizer, parent, move)[2]
        ),
    )
    monkeypatch.setattr(PerfPwrOptimizer, "_commit", _full_solve_commit)
    oracle = _ideal_records(optimizer_args, options, workload_vectors)
    assert spliced == oracle


def _hexed(value):
    """``value`` with every float spelled by ``float.hex`` and every
    mapping as its item list, so equal results are equal bit for bit
    and in order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Mapping):
        return [(key, _hexed(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple, frozenset)):
        items = sorted(value) if isinstance(value, frozenset) else value
        return [_hexed(item) for item in items]
    if dataclasses.is_dataclass(value):
        return [
            (field.name, _hexed(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        ]
    return value


def test_every_committed_view_matches_a_full_solve(
    optimizer_args, monkeypatch
):
    """Each step's spliced view (plan, tier solutions, busy-CPU terms
    and spans, performance rates, targets, the applications over
    target, both sums, the kept move list) is bit for bit the
    decomposition of a full solve of the child plan, with the move list
    ``_moves`` builds afresh, and the walk's memo holds no score of the
    moved application, for the default and Pwr-Cost variants on 10
    seeded workload vectors and two that leave the first application
    out."""
    commit = PerfPwrOptimizer._commit
    seen = {"drops": 0, "handoffs": 0, "missed_changes": 0}

    def checked_commit(optimizer, parent, move):
        child = commit(optimizer, parent, move)
        assert child.moves == optimizer._moves(child.plan), move
        reference = _full_solve_view(optimizer, parent, move)
        for field in dataclasses.fields(child):
            if field.name not in ("memo", "solved"):
                assert _hexed(getattr(child, field.name)) == _hexed(
                    getattr(reference, field.name)
                ), (field.name, move)
        assert optimizer._vm_tier[move[0]][0] not in child.memo
        if move[1] is None:
            seen["drops"] += 1
            tier = optimizer._vm_tier[move[0]]
            seen["handoffs"] += any(
                cap is None and optimizer._vm_tier[vm_id] == tier
                for vm_id, cap in child.moves
            )
        seen["missed_changes"] += child.missed != parent.missed
        return child

    monkeypatch.setattr(PerfPwrOptimizer, "_commit", checked_commit)
    vectors = _workload_vectors(optimizer_args[0], 29, 10)
    for variant in ("default", "pwr-cost"):
        _ideal_records(optimizer_args, VARIANTS[variant], vectors)
    # The walks took replica drops (which shift the later spans) and
    # steps that moved an application over its target (only the
    # default variant's gradient takes those).
    assert seen["drops"] > 0
    assert seen["missed_changes"] > 0
    # With a three-replica tier, a drop passed the tier's drop move on
    # to its next-highest replica.
    tiers = [tier for app in optimizer_args[0] for tier in app.tiers]
    if any(tier.max_replicas > 2 for tier in tiers):
        assert seen["handoffs"] > 0


@pytest.mark.perf_smoke
def test_ideal_resolves_one_tier_per_candidate(testbed_apps4):
    """One optimization makes a full solve only at each walk's root and
    for the packed configurations, runs the tier kernel once for each
    distinct (tier, placed caps) its walks score, and takes its steps
    from those tier solves without another solve."""
    testbed = testbed_apps4
    optimizer = PerfPwrOptimizer(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.host_ids,
    )
    sink = RingBufferSink()
    runtime.enable(sink=sink)
    try:
        optimizer.optimize(dict.fromkeys(testbed.applications.names(), 60.0))
    finally:
        runtime.disable()
    counters = runtime.registry.snapshot()["counters"]
    (event,) = [
        event
        for event in sink.events()
        if event["name"] == "perf_pwr.optimize"
    ]
    attrs = event["attrs"]
    host_counts = attrs["host_counts_tried"]
    assert counters["solver.full_solves"] <= 3 * host_counts + 1
    # Each step is spliced from its move's memoized tier solve: no
    # update_state.
    assert attrs["steps"] > 0
    assert counters.get("solver.incremental_solves", 0) == 0
    # Two walk roots (the gradient and the minimal capacities) plus the
    # moves scored, as many as when every move re-solved its tier.
    assert attrs["plans_scored"] == 2876
    moves = attrs["plans_scored"] - 2
    # One kernel run per distinct tier input: a step makes only its own
    # application's move scores stale, and re-scoring them runs the
    # kernel only for the stepped tier's moves, so one tier solve
    # serves about 15 scored moves.
    tier_solves = counters["solver.tiers_resolved"]
    assert moves == 2874
    assert attrs["tier_solves"] == optimizer.tier_solves == tier_solves == 194


# -- capacity bound -------------------------------------------------------------------


@given(
    # Catalog index -> cap in tenths (0.2 to 0.8) of the 20 VMs.
    tenths=st.dictionaries(st.integers(0, 19), st.integers(2, 8), min_size=1),
    host_count=st.integers(1, 8),
)
# Five VMs that fill two hosts exactly and pack, although the float sum
# of their caps, 1.6000000000000003, is above 2 * 0.8: the bound must
# keep its slack.
@example(tenths={0: 2, 1: 4, 2: 3, 3: 4, 4: 3}, host_count=2)
@settings(max_examples=300, deadline=None)
def test_plans_over_capacity_never_pack(testbed_apps4, tenths, host_count):
    """The gradient skips ``_pack`` for a plan over the hosts' total
    cap; no such plan on the 0.1 cap grid packs."""
    optimizer = PerfPwrOptimizer(
        testbed_apps4.applications,
        testbed_apps4.catalog,
        testbed_apps4.limits,
        testbed_apps4.estimator,
        testbed_apps4.host_ids,
    )
    vm_ids = [descriptor.vm_id for descriptor in optimizer.catalog]
    plan = CapacityPlan(
        {vm_ids[index]: tenth / 10 for index, tenth in tenths.items()}
    )
    hosts = optimizer.host_ids[:host_count]
    if optimizer._over_capacity(plan, hosts):
        assert optimizer._pack(plan, hosts) is None
