"""Search watchdog: ``SearchSettings.deadline_seconds`` bounds measured
search wall time, and the controller counts the aborts it causes."""

import pytest

from repro.core.config import Configuration, Placement
from repro.core.search import AdaptationSearch, SearchSettings

HOSTS = ("host-0", "host-1", "host-2", "host-3")

#: SearchOutcome fields under the bit-identity contract (everything but
#: the measured ``wall_seconds`` — same list as tests/test_array_core.py).
OUTCOME_FIELDS = (
    "actions",
    "final_configuration",
    "predicted_utility",
    "expansions",
    "decision_seconds",
    "pruning_activated",
    "optimal",
)


def _build(testbed, **kwargs):
    from repro.testbed import build_mistral

    return build_mistral(testbed, **kwargs)


@pytest.fixture
def make_search(apps, catalog, limits, estimator, cost_manager, optimizer):
    def factory(search_settings=None):
        return AdaptationSearch(
            apps,
            catalog,
            limits,
            estimator,
            cost_manager,
            optimizer,
            HOSTS,
            settings=search_settings or SearchSettings(),
        )

    return factory


def saturated_config():
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


def test_deadline_validation():
    with pytest.raises(ValueError, match="deadline_seconds"):
        SearchSettings(deadline_seconds=0.0)
    with pytest.raises(ValueError, match="deadline_seconds"):
        SearchSettings(deadline_seconds=-1.0)
    assert SearchSettings(deadline_seconds=None).deadline_seconds is None


def test_tiny_deadline_aborts_to_valid_plan(make_search, catalog, limits):
    search = make_search(SearchSettings(deadline_seconds=1e-6))
    workloads = {"RUBiS-1": 60.0, "RUBiS-2": 55.0}
    outcome = search.search(saturated_config(), workloads, 600.0)
    assert outcome.deadline_aborted
    assert not outcome.optimal
    # Aborting still returns a valid, executable plan (possibly null).
    assert outcome.final_configuration.is_candidate(catalog, limits)
    state = saturated_config()
    for action in outcome.actions:
        state = action.apply(state, catalog, limits)
    assert state == outcome.final_configuration
    # The overshoot is bounded by one expansion round; on this testbed
    # a round is far below a second, so seconds of slack is generous.
    assert outcome.wall_seconds <= 1e-6 + 5.0


def test_generous_deadline_is_bit_identical_to_no_deadline(make_search):
    workloads = {"RUBiS-1": 60.0, "RUBiS-2": 55.0}
    bounded = make_search(SearchSettings(deadline_seconds=3600.0)).search(
        saturated_config(), workloads, 600.0
    )
    unbounded = make_search(SearchSettings()).search(
        saturated_config(), workloads, 600.0
    )
    assert not bounded.deadline_aborted
    for field in OUTCOME_FIELDS:
        assert getattr(bounded, field) == getattr(unbounded, field), field


def test_controller_counts_watchdog_aborts(small_testbed):
    controller, _ = _build(
        small_testbed,
        hierarchical=False,
        search_settings=SearchSettings(deadline_seconds=1e-6),
    )
    # An unseen sample escapes the band, and the underprovisioned
    # configuration forces a real (non-early-return) search, which the
    # 1µs deadline aborts immediately.
    decision = controller.on_sample(
        0.0, {"RUBiS-1": 60.0, "RUBiS-2": 55.0}, saturated_config()
    )
    assert controller.stats.watchdog_aborts == 1
    assert controller.stats.decisions == 1
    if decision is not None:
        assert decision.outcome.deadline_aborted
