"""Tests for the utility model (Eqs. 1-2, Fig. 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import UtilityModel, UtilityParameters


@pytest.fixture
def model():
    return UtilityModel()


# -- Fig. 3 shapes -----------------------------------------------------------


def test_reward_grows_with_rate(model):
    assert model.reward(0.0) < model.reward(50.0) < model.reward(100.0)
    assert model.reward(100.0) == pytest.approx(
        model.parameters.reward_scale
    )


def test_penalty_shrinks_in_magnitude(model):
    assert abs(model.penalty(0.0)) > abs(model.penalty(50.0)) > abs(
        model.penalty(100.0)
    )
    assert model.penalty(100.0) < 0


def test_rates_clamped_to_workload_scale(model):
    assert model.reward(150.0) == model.reward(100.0)
    assert model.penalty(-10.0) == model.penalty(0.0)


# -- Eq. 1 --------------------------------------------------------------------


def test_perf_utility_rate_reward_vs_penalty(model):
    target = model.parameters.target_response_time
    meeting = model.perf_utility_rate("app", 50.0, target - 0.01)
    missing = model.perf_utility_rate("app", 50.0, target + 0.01)
    assert meeting > 0 > missing
    interval = model.parameters.monitoring_interval
    assert meeting == pytest.approx(model.reward(50.0) / interval)
    assert missing == pytest.approx(model.penalty(50.0) / interval)


def test_boundary_counts_as_meeting(model):
    target = model.parameters.target_response_time
    assert model.perf_utility_rate("app", 50.0, target) > 0


def test_custom_target_function():
    model = UtilityModel(target_rt_fn=lambda app, rate: 1.0)
    assert model.target_response_time("x", 50.0) == 1.0
    assert model.perf_utility_rate("x", 50.0, 0.9) > 0


def test_total_perf_rate_sums_apps(model):
    target = model.parameters.target_response_time
    workloads = {"a": 50.0, "b": 50.0}
    response_times = {"a": target / 2, "b": target * 2}
    total = model.total_perf_rate(workloads, response_times)
    expected = model.perf_utility_rate(
        "a", 50.0, target / 2
    ) + model.perf_utility_rate("b", 50.0, target * 2)
    assert total == pytest.approx(expected)


# -- Eq. 2 --------------------------------------------------------------------


def test_power_utility_rate_matches_price(model):
    params = model.parameters
    rate = model.power_utility_rate(200.0)
    assert rate == pytest.approx(
        -200.0 * params.cost_per_watt_interval / params.monitoring_interval
    )
    assert model.power_utility_rate(0.0) == 0.0


# -- interval utility ---------------------------------------------------------


def test_interval_utility_positive_when_meeting(model):
    target = model.parameters.target_response_time
    value = model.interval_utility(
        {"a": 60.0}, {"a": target / 2}, watts=100.0
    )
    assert value == pytest.approx(model.reward(60.0) - 1.0)


# -- calibration ------------------------------------------------------------------


def test_calibrated_reward_hits_profit_anchor(model):
    calibrated = model.calibrated(
        default_config_watts=300.0, app_count=2, reference_rate=50.0
    )
    params = calibrated.parameters
    power_cost = 300.0 * params.cost_per_watt_interval
    rewards = 2 * calibrated.reward(50.0)
    assert rewards == pytest.approx(1.2 * power_cost)


def test_calibrated_validation(model):
    with pytest.raises(ValueError):
        model.calibrated(0.0, 2)
    with pytest.raises(ValueError):
        model.calibrated(100.0, 0)


def test_parameters_validation():
    with pytest.raises(ValueError):
        UtilityParameters(monitoring_interval=0.0)
    with pytest.raises(ValueError):
        UtilityParameters(reward_scale=-1.0)
    with pytest.raises(ValueError):
        UtilityParameters(
            penalty_floor_fraction=2.0, penalty_ceiling_fraction=1.0
        )


# -- properties ---------------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_property_reward_exceeds_penalty(rate):
    model = UtilityModel()
    assert model.reward(rate) > model.penalty(rate)


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.001, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_property_meeting_never_worse_than_missing(rate, response):
    model = UtilityModel()
    target = model.parameters.target_response_time
    meet = model.perf_utility_rate("a", rate, min(response, target))
    miss = model.perf_utility_rate("a", rate, target + response)
    assert meet >= miss


@given(st.floats(min_value=0.0, max_value=10_000.0))
@settings(max_examples=50, deadline=None)
def test_property_power_utility_nonpositive(watts):
    assert UtilityModel().power_utility_rate(watts) <= 0.0
