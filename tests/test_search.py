"""Tests for the Naive / Self-Aware A* adaptation search."""

import pytest

from repro.core.actions import NullAction
from repro.core.config import Configuration, Placement
from repro.core.search import (
    ALL_ACTION_KINDS,
    AdaptationSearch,
    SearchSettings,
)

HOSTS = ("host-0", "host-1", "host-2", "host-3")


@pytest.fixture(autouse=True)
def _pin_astar_backend(monkeypatch):
    """This suite specifies the A* loop itself; the
    MISTRAL_SEARCH_STRATEGY CI leg must not swap the backend here."""
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY", raising=False)



@pytest.fixture
def search(apps, catalog, limits, estimator, cost_manager, optimizer):
    return AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS
    )


def saturated_config():
    """Both apps underprovisioned on two hosts."""
    return Configuration(
        {
            "RUBiS-1-web-0": Placement("host-0", 0.2),
            "RUBiS-1-app-0": Placement("host-0", 0.2),
            "RUBiS-1-db-0": Placement("host-1", 0.4),
            "RUBiS-2-web-0": Placement("host-0", 0.2),
            "RUBiS-2-app-0": Placement("host-0", 0.2),
            "RUBiS-2-db-0": Placement("host-1", 0.4),
        },
        {"host-0", "host-1"},
    )


def test_near_ideal_configuration_stays_put(search, optimizer):
    workloads = {"RUBiS-1": 30.0, "RUBiS-2": 30.0}
    ideal = optimizer.optimize(workloads).configuration
    outcome = search.search(ideal, workloads, control_window=600.0)
    assert outcome.is_null
    assert outcome.final_configuration == ideal


def test_scales_up_under_load(search, catalog, limits, estimator):
    workloads = {"RUBiS-1": 60.0, "RUBiS-2": 55.0}
    outcome = search.search(
        saturated_config(), workloads, control_window=600.0
    )
    assert not outcome.is_null
    final = estimator.estimate(outcome.final_configuration, workloads)
    start = estimator.estimate(saturated_config(), workloads)
    assert final.total_rate > start.total_rate
    assert outcome.final_configuration.is_candidate(catalog, limits)


def test_plan_is_applicable_in_sequence(search, catalog, limits):
    workloads = {"RUBiS-1": 60.0, "RUBiS-2": 55.0}
    start = saturated_config()
    outcome = search.search(start, workloads, control_window=600.0)
    state = start
    for action in outcome.actions:
        state = action.apply(state, catalog, limits)
    assert state == outcome.final_configuration


def test_no_null_actions_in_plan(search):
    outcome = search.search(
        saturated_config(),
        {"RUBiS-1": 60.0, "RUBiS-2": 55.0},
        control_window=600.0,
    )
    assert not any(isinstance(a, NullAction) for a in outcome.actions)


def test_short_window_avoids_expensive_reconfiguration(search):
    workloads = {"RUBiS-1": 90.0, "RUBiS-2": 85.0}
    short = search.search(saturated_config(), workloads, control_window=120.0)
    long = search.search(saturated_config(), workloads, control_window=1800.0)
    short_time = sum(
        search.cost_manager.predict(a, saturated_config(), workloads).duration
        for a in short.actions
    )
    long_time = sum(
        search.cost_manager.predict(a, saturated_config(), workloads).duration
        for a in long.actions
    )
    assert short_time <= long_time


def test_long_window_reaches_target_capacity(search, estimator):
    workloads = {"RUBiS-1": 90.0, "RUBiS-2": 85.0}
    outcome = search.search(
        saturated_config(), workloads, control_window=1800.0
    )
    final = estimator.estimate(outcome.final_configuration, workloads)
    target = estimator.utility.parameters.target_response_time
    # At least one app pulled under target; total rate strongly improved.
    assert any(rt <= target for rt in final.response_times.values())


def test_decision_seconds_scale_with_expansions(search):
    outcome = search.search(
        saturated_config(),
        {"RUBiS-1": 60.0, "RUBiS-2": 55.0},
        control_window=600.0,
    )
    assert outcome.decision_seconds > 0.0
    if outcome.expansions > 10:
        assert outcome.decision_seconds > 0.1


def test_naive_explores_at_least_as_much(
    apps, catalog, limits, estimator, cost_manager, optimizer
):
    workloads = {"RUBiS-1": 90.0, "RUBiS-2": 85.0}
    aware = AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS,
        SearchSettings(self_aware=True, max_expansions=1200),
    )
    naive = AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS,
        SearchSettings(self_aware=False, max_expansions=1200),
    )
    aware_out = aware.search(saturated_config(), workloads, 600.0)
    naive_out = naive.search(saturated_config(), workloads, 600.0)
    assert naive_out.expansions >= aware_out.expansions
    assert naive_out.decision_seconds >= aware_out.decision_seconds


def test_scoped_search_stays_in_scope(
    apps, catalog, limits, estimator, cost_manager, optimizer
):
    scoped = AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS,
        SearchSettings(
            allowed_kinds=frozenset({"increase_cpu", "decrease_cpu", "migrate"})
        ),
    )
    scoped.scope_hosts = frozenset({"host-0", "host-1"})
    outcome = scoped.search(
        saturated_config(),
        {"RUBiS-1": 60.0, "RUBiS-2": 55.0},
        control_window=600.0,
    )
    for action in outcome.actions:
        assert action.kind in {"increase_cpu", "decrease_cpu", "migrate"}
        target_host = getattr(action, "target_host", None)
        if target_host is not None:
            assert target_host in {"host-0", "host-1"}
    # Untouched hosts stay dark.
    assert outcome.final_configuration.powered_hosts == {"host-0", "host-1"}


def test_allowed_kinds_restrict_actions(
    apps, catalog, limits, estimator, cost_manager, optimizer
):
    cap_only = AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS,
        SearchSettings(
            allowed_kinds=frozenset({"increase_cpu", "decrease_cpu"})
        ),
    )
    outcome = cap_only.search(
        saturated_config(),
        {"RUBiS-1": 60.0, "RUBiS-2": 55.0},
        control_window=600.0,
    )
    assert all(
        action.kind in {"increase_cpu", "decrease_cpu"}
        for action in outcome.actions
    )


def test_settings_validation():
    with pytest.raises(ValueError):
        SearchSettings(max_expansions=0)


def test_expected_utility_budget_triggers_pruning(
    apps, catalog, limits, estimator, cost_manager, optimizer
):
    search = AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS,
        SearchSettings(self_aware=True),
    )
    workloads = {"RUBiS-1": 90.0, "RUBiS-2": 85.0}
    outcome = search.search(
        saturated_config(),
        workloads,
        control_window=1800.0,
        expected_utility=-1e9,  # budget already exhausted
        expected_rate=0.0,
    )
    # With no budget, pruning kicks in immediately (if any expansion ran).
    if outcome.expansions > 0:
        assert outcome.pruning_activated
