"""Tests for the shared utility estimator."""

import pytest

from repro.core.config import Configuration, Placement
from repro.core.estimator import UtilityEstimator


def test_estimate_contains_all_components(estimator, base_configuration):
    workloads = {"RUBiS-1": 30.0, "RUBiS-2": 30.0}
    estimate = estimator.estimate(base_configuration, workloads)
    assert set(estimate.response_times) == {"RUBiS-1", "RUBiS-2"}
    assert estimate.watts > 100.0
    assert estimate.power_rate < 0.0
    assert estimate.total_rate == pytest.approx(
        estimate.perf_rate + estimate.power_rate
    )
    assert estimate.busy_cpu > 0.0


def test_estimates_are_cached(estimator, base_configuration):
    workloads = {"RUBiS-1": 31.0, "RUBiS-2": 29.0}
    before = estimator.evaluations
    first = estimator.estimate(base_configuration, workloads)
    mid = estimator.evaluations
    second = estimator.estimate(base_configuration, workloads)
    assert mid == before + 1
    assert estimator.evaluations == mid
    assert second is first


def test_cache_distinguishes_workloads(estimator, base_configuration):
    a = estimator.estimate(base_configuration, {"RUBiS-1": 10.0, "RUBiS-2": 10.0})
    b = estimator.estimate(base_configuration, {"RUBiS-1": 40.0, "RUBiS-2": 40.0})
    assert a.perf_rate != b.perf_rate or a.watts != b.watts


def test_meeting_targets_yields_positive_perf_rate(estimator, base_configuration):
    estimate = estimator.estimate(
        base_configuration, {"RUBiS-1": 20.0, "RUBiS-2": 20.0}
    )
    assert estimate.perf_rate > 0.0
    assert all(rate > 0 for rate in estimate.app_perf_rates.values())


def test_saturation_yields_penalties(estimator, base_configuration):
    estimate = estimator.estimate(
        base_configuration, {"RUBiS-1": 95.0, "RUBiS-2": 95.0}
    )
    assert estimate.perf_rate < 0.0


def test_transient_rates_apply_deltas(estimator, base_configuration):
    workloads = {"RUBiS-1": 30.0, "RUBiS-2": 30.0}
    base = estimator.estimate(base_configuration, workloads)
    perf_same, power_same = estimator.transient_rates(base, workloads, {}, 0.0)
    assert perf_same == pytest.approx(base.perf_rate)
    assert power_same == pytest.approx(base.power_rate)

    # A response-time delta that pushes an app over the target flips
    # its reward into a penalty.
    big_delta = {"RUBiS-1": 10.0}
    perf_hit, power_hit = estimator.transient_rates(
        base, workloads, big_delta, 50.0
    )
    assert perf_hit < perf_same
    assert power_hit < power_same


def test_transient_rates_memo_changes_no_result(estimator, base_configuration):
    """With a memo, ``transient_rates`` returns the very floats it
    computes without one, on a miss and on a hit.  The cases put one
    app's response on both sides of its target and use two power
    draws, so a memo keyed on the app (or on power) alone fails."""
    workloads = {"RUBiS-1": 30.0, "RUBiS-2": 30.0}
    base = estimator.estimate(base_configuration, workloads)
    slack = (
        estimator.utility.target_response_time("RUBiS-1", 30.0)
        - base.response_times["RUBiS-1"]
    )
    assert slack > 0.0
    cases = [
        ({"RUBiS-1": slack / 2}, 25.0),
        ({"RUBiS-1": slack * 2}, -10.0),
        ({"RUBiS-1": slack / 2, "RUBiS-2": 1.0}, 0.0),
    ]
    plain = [
        estimator.transient_rates(base, workloads, rt_delta, watts)
        for rt_delta, watts in cases
    ]
    assert plain[0][0] != plain[1][0]  # reward, then penalty
    memo: dict = {}
    for _ in range(2):  # misses, then hits
        for (rt_delta, watts), expected in zip(cases, plain):
            rates = estimator.transient_rates(
                base, workloads, rt_delta, watts, memo
            )
            assert [rate.hex() for rate in rates] == [
                rate.hex() for rate in expected
            ]


def test_clear_cache(estimator, base_configuration):
    workloads = {"RUBiS-1": 33.0, "RUBiS-2": 33.0}
    estimator.estimate(base_configuration, workloads)
    estimator.clear_cache()
    before = estimator.evaluations
    estimator.estimate(base_configuration, workloads)
    assert estimator.evaluations == before + 1
