"""White-box tests for adaptation-search internals."""

import pytest

from repro.core.actions import AddReplica, MigrateVm, PowerOnHost
from repro.core.config import Configuration, Placement
from repro.core.search import AdaptationSearch, SearchSettings, _CostMemo
from repro.testbed.scenarios import (
    _global_perf_pwr,
    initial_configuration,
    make_testbed,
)

HOSTS = ("host-0", "host-1", "host-2", "host-3")


@pytest.fixture
def search(apps, catalog, limits, estimator, cost_manager, optimizer):
    return AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS
    )


@pytest.fixture
def config(base_configuration):
    return base_configuration


# -- action enumeration ----------------------------------------------------------


def test_enumeration_covers_all_kinds(search, config):
    actions = search._enumerate_actions(config)
    kinds = {action.kind for action in actions}
    assert kinds == {
        "increase_cpu",
        "decrease_cpu",
        "migrate",
        "add_replica",
        "power_on",
    }
    # No removable replicas (all tiers at one replica) and no idle
    # powered hosts, hence no remove/power_off.


def test_enumeration_includes_remove_and_power_off(search, config):
    grown = config.replace("RUBiS-1-db-1", Placement("host-0", 0.2))
    grown = grown.power_on("host-2")
    actions = search._enumerate_actions(grown)
    kinds = {action.kind for action in actions}
    assert "remove_replica" in kinds
    assert "power_off" in kinds


def test_enumeration_migration_targets_are_powered(search, config):
    actions = search._enumerate_actions(config)
    for action in actions:
        if isinstance(action, MigrateVm):
            assert action.target_host in config.powered_hosts


def test_enumeration_emits_cap_jumps_toward_ideal(search, config):
    target_caps = {"RUBiS-1-db-0": 0.8}
    actions = search._enumerate_actions(config, target_caps)
    jumps = [
        action
        for action in actions
        if getattr(action, "count", 1) > 1
        and getattr(action, "vm_id", None) == "RUBiS-1-db-0"
    ]
    assert jumps, "expected a multi-step jump to the ideal cap"
    assert jumps[0].count == 4  # 0.4 -> 0.8


def test_enumeration_add_replica_uses_ideal_cap(search, config):
    target_caps = {"RUBiS-1-db-1": 0.6}
    actions = search._enumerate_actions(config, target_caps)
    caps = {
        action.cpu_cap
        for action in actions
        if isinstance(action, AddReplica)
        and action.app_name == "RUBiS-1"
        and action.tier_name == "db"
    }
    assert 0.6 in caps
    assert 0.2 in caps  # the default replica cap remains available


# -- cost-to-go ------------------------------------------------------------------


def test_togo_seconds_zero_for_identical_configs(search, config):
    durations = search._togo_durations({"RUBiS-1": 50.0, "RUBiS-2": 50.0})
    assert search._togo_seconds(config, config, durations) == pytest.approx(0.0)


def test_togo_seconds_counts_each_difference(search, config):
    durations = search._togo_durations({"RUBiS-1": 50.0, "RUBiS-2": 50.0})
    moved = config.replace(
        "RUBiS-1-db-0", Placement("host-0", 0.4)
    )
    migrate_only = search._togo_seconds(config, moved, durations)
    assert migrate_only == pytest.approx(
        durations[("migrate", "db")]
    )
    recapped = config.replace("RUBiS-1-db-0", Placement("host-1", 0.6))
    cap_only = search._togo_seconds(config, recapped, durations)
    assert cap_only == pytest.approx(2.0)  # two cap steps at ~1 s each
    powered = config.power_on("host-2")
    boot_only = search._togo_seconds(config, powered, durations)
    assert boot_only == pytest.approx(durations[("power_on", "-")])


def test_togo_seconds_replica_changes(search, config):
    grown = config.replace("RUBiS-1-db-1", Placement("host-0", 0.2))
    durations = search._togo_durations({"RUBiS-1": 50.0, "RUBiS-2": 50.0})
    add_cost = search._togo_seconds(config, grown, durations)
    assert add_cost == pytest.approx(durations[("add_replica", "db")])
    remove_cost = search._togo_seconds(grown, config, durations)
    assert remove_cost == pytest.approx(durations[("remove_replica", "db")])


# -- distance ---------------------------------------------------------------------


def test_distance_zero_at_ideal(search, optimizer, config):
    workloads = {"RUBiS-1": 50.0, "RUBiS-2": 50.0}
    ideal = optimizer.optimize(workloads)
    weights, caps = search._ideal_distance_basis(ideal)
    assert search._distance(
        ideal.configuration, caps, weights, ideal
    ) == pytest.approx(0.0)


def test_distance_grows_with_cap_mismatch(search, optimizer, config):
    workloads = {"RUBiS-1": 50.0, "RUBiS-2": 50.0}
    ideal = optimizer.optimize(workloads)
    weights, caps = search._ideal_distance_basis(ideal)
    base = search._distance(config, caps, weights, ideal)
    assert base > 0.0


# -- projection --------------------------------------------------------------------


def test_project_ideal_pins_out_of_scope_vms(
    apps, catalog, limits, estimator, cost_manager, optimizer, config
):
    scoped = AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS,
        SearchSettings(
            allowed_kinds=frozenset({"increase_cpu", "decrease_cpu", "migrate"})
        ),
    )
    scoped.scope_hosts = frozenset({"host-0"})
    workloads = {"RUBiS-1": 60.0, "RUBiS-2": 55.0}
    ideal = optimizer.optimize(workloads)
    projected = scoped._project_ideal(config, ideal, workloads)
    # host-1 VMs untouched; replication unchanged (no add/remove kinds).
    for vm_id in config.vms_on_host("host-1"):
        assert projected.configuration.placement_of(vm_id) == (
            config.placement_of(vm_id)
        )
    assert set(projected.configuration.placed_vm_ids()) == set(
        config.placed_vm_ids()
    )
    assert projected.configuration.powered_hosts == config.powered_hosts


# -- cost-prediction memo ------------------------------------------------------------


@pytest.mark.parametrize("app_count", [2, 4])
@pytest.mark.parametrize("strategy", ["astar", "annealing"])
def test_cost_memo_answers_equal_fresh_predictions(
    strategy, app_count, monkeypatch
):
    """Every prediction the shared memo hands a search, the A*'s
    per-round lookups and a walker's per-child ones alike, equals a
    fresh ``CostManager.predict`` of the same (action, configuration)
    pair.  Walkers revisit parents whose hosts hold other apps than
    when the memo first saw the action, so a key missing an input
    ``predict`` reads shows up here as a stale answer."""
    answers = []
    predict = _CostMemo.predict
    predict_round = _CostMemo.predict_round

    def recorded_predict(self, action, configuration):
        value = predict(self, action, configuration)
        answers.append((configuration, action, value))
        return value

    def recorded_round(self, configuration, actions, expired):
        values = predict_round(self, configuration, actions, expired)
        answers.extend(
            (configuration, action, value)
            for action, value in zip(actions, values)
        )
        return values

    monkeypatch.setattr(_CostMemo, "predict", recorded_predict)
    monkeypatch.setattr(_CostMemo, "predict_round", recorded_round)
    testbed = make_testbed(app_count, seed=0)
    search = AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=SearchSettings(strategy=strategy),
    )
    workloads = {
        app.name: 45.0 + 5.0 * index
        for index, app in enumerate(testbed.applications)
    }
    outcome = search.search(initial_configuration(testbed), workloads, 300.0)
    assert outcome.actions
    pairs = {}
    for configuration, action, value in answers:
        pairs.setdefault((configuration, action), []).append(value)
    kinds = {action.kind for _, action in pairs}
    assert {"migrate", "add_replica", "increase_cpu"} <= kinds
    for (configuration, action), values in pairs.items():
        fresh = testbed.cost_manager.predict(action, configuration, workloads)
        for value in values:
            assert value.duration == fresh.duration, action
            assert value.rt_delta == fresh.rt_delta, action
            assert value.power_delta_watts == fresh.power_delta_watts, action
