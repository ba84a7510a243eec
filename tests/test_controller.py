"""Tests for the Mistral controller and the hierarchy."""

from types import SimpleNamespace

import pytest

from repro.core.controller import MistralController
from repro.core.hierarchy import ControllerHierarchy
from repro.core.search import AdaptationSearch, SearchSettings
from repro.workload.monitor import WorkloadMonitor

HOSTS = ("host-0", "host-1", "host-2", "host-3")


@pytest.fixture
def controller(apps, catalog, limits, estimator, cost_manager, optimizer):
    search = AdaptationSearch(
        apps, catalog, limits, estimator, cost_manager, optimizer, HOSTS
    )
    return MistralController(
        name="test-L2",
        search=search,
        monitor=WorkloadMonitor(band_width=8.0),
    )


def test_first_sample_always_evaluates(controller, base_configuration):
    decision = controller.on_sample(
        0.0, {"RUBiS-1": 30.0, "RUBiS-2": 30.0}, base_configuration
    )
    assert decision is not None
    assert controller.stats.decisions == 1


def test_within_band_no_decision(controller, base_configuration):
    controller.on_sample(
        0.0, {"RUBiS-1": 30.0, "RUBiS-2": 30.0}, base_configuration
    )
    decision = controller.on_sample(
        120.0, {"RUBiS-1": 31.0, "RUBiS-2": 29.0}, base_configuration
    )
    assert decision is None
    assert controller.stats.invocations == 2
    assert controller.stats.decisions == 1


def test_band_escape_triggers_search(controller, base_configuration):
    controller.on_sample(
        0.0, {"RUBiS-1": 30.0, "RUBiS-2": 30.0}, base_configuration
    )
    decision = controller.on_sample(
        360.0, {"RUBiS-1": 60.0, "RUBiS-2": 55.0}, base_configuration
    )
    assert decision is not None
    assert not decision.is_null
    assert decision.control_window >= controller.min_control_window
    assert decision.decision_seconds > 0.0


def test_busy_skips_search_but_recentres(controller, base_configuration):
    controller.on_sample(
        0.0, {"RUBiS-1": 30.0, "RUBiS-2": 30.0}, base_configuration
    )
    decision = controller.on_sample(
        120.0,
        {"RUBiS-1": 90.0, "RUBiS-2": 85.0},
        base_configuration,
        busy=True,
    )
    assert decision is None
    assert controller.stats.skipped_busy == 1
    # Bands re-centred on the new workloads: no escape next sample.
    assert (
        controller.on_sample(
            240.0, {"RUBiS-1": 91.0, "RUBiS-2": 84.0}, base_configuration
        )
        is None
    )


def test_expected_utility_uses_lowest_recent(controller):
    controller.record_interval_utility(2.0)
    controller.record_interval_utility(-1.0)
    controller.record_interval_utility(1.0)
    interval = controller.search.estimator.utility.parameters.monitoring_interval
    expected = controller.expected_utility(2 * interval)
    assert expected == pytest.approx(-2.0)
    assert MistralController(
        "x", controller.search, WorkloadMonitor(0.0)
    ).expected_utility(120.0) is None


def test_stats_accumulate(controller, base_configuration):
    controller.on_sample(
        0.0, {"RUBiS-1": 30.0, "RUBiS-2": 30.0}, base_configuration
    )
    controller.on_sample(
        360.0, {"RUBiS-1": 60.0, "RUBiS-2": 55.0}, base_configuration
    )
    stats = controller.stats
    assert stats.invocations == 2
    assert stats.escapes == 2
    assert len(stats.search_seconds) == stats.decisions
    assert stats.mean_search_seconds() > 0.0


# -- hierarchy ---------------------------------------------------------------------


@pytest.fixture
def hierarchy(apps, catalog, limits, estimator, cost_manager, optimizer):
    def make(name, band, kinds, scope):
        settings = SearchSettings(allowed_kinds=frozenset(kinds))
        search = AdaptationSearch(
            apps, catalog, limits, estimator, cost_manager, optimizer,
            HOSTS, settings,
        )
        if scope:
            search.scope_hosts = frozenset(scope)
        return MistralController(
            name=name, search=search, monitor=WorkloadMonitor(band_width=band)
        )

    level1 = [
        make(
            "L1-0",
            0.0,
            {"increase_cpu", "decrease_cpu", "migrate"},
            ("host-0", "host-1"),
        )
    ]
    level2 = make("L2", 8.0, {
        "increase_cpu", "decrease_cpu", "migrate",
        "add_replica", "remove_replica", "power_on", "power_off",
    }, None)
    return ControllerHierarchy(level1, level2)


def test_hierarchy_level2_goes_first_on_escape(
    hierarchy, base_configuration
):
    decisions = hierarchy.on_sample(
        0.0, {"RUBiS-1": 60.0, "RUBiS-2": 55.0}, base_configuration
    )
    if decisions:
        assert decisions[0].controller == "L2"


def test_hierarchy_level1_refines_when_level2_quiet(
    hierarchy, base_configuration
):
    hierarchy.on_sample(
        0.0, {"RUBiS-1": 30.0, "RUBiS-2": 30.0}, base_configuration
    )
    # Small change: inside the L2 band, L1 (band 0) still evaluates.
    decisions = hierarchy.on_sample(
        120.0, {"RUBiS-1": 33.0, "RUBiS-2": 28.0}, base_configuration
    )
    assert all(d.controller.startswith("L1") for d in decisions)


def test_hierarchy_broadcasts_utilities(hierarchy):
    hierarchy.record_interval_utility(1.5)
    for controller in hierarchy.controllers():
        assert controller.expected_utility(120.0) is not None


def test_hierarchy_requires_level1():
    with pytest.raises(ValueError):
        ControllerHierarchy([], level2=None)


def test_mean_search_seconds_keys(hierarchy, base_configuration):
    hierarchy.on_sample(
        0.0, {"RUBiS-1": 60.0, "RUBiS-2": 55.0}, base_configuration
    )
    durations = hierarchy.mean_search_seconds()
    assert set(durations) == {"level1", "level2", "overall"}


class _ChainRecorder:
    """Stub controller recording the configuration each sample hands it
    and answering with a fixed decision."""

    def __init__(self, name: str, decision=None) -> None:
        self.name = name
        self.decision = decision
        self.seen: list = []

    def on_sample(self, now, workloads, configuration, busy=False):
        self.seen.append(configuration)
        return self.decision


def _acting_decision(name: str, final_configuration):
    return SimpleNamespace(
        is_null=False,
        controller=name,
        outcome=SimpleNamespace(final_configuration=final_configuration),
    )


def test_hierarchy_chains_level1_configurations():
    """Each 1st-level controller plans against the configuration its
    predecessor's plan leaves behind, and decisions keep that order."""
    sampled, after_first = object(), object()
    first = _ChainRecorder("L1-0", _acting_decision("L1-0", after_first))
    second = _ChainRecorder("L1-1", _acting_decision("L1-1", object()))
    hierarchy = ControllerHierarchy([first, second], _ChainRecorder("L2"))

    decisions = hierarchy.on_sample(0.0, {"RUBiS-1": 10.0}, sampled)

    assert [decision.controller for decision in decisions] == ["L1-0", "L1-1"]
    assert first.seen == [sampled]
    assert second.seen == [after_first]
