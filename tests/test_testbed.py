"""Tests for the testbed rig, metrics, and scenario builders."""

import json

import pytest

from repro.testbed.metrics import (
    ActionRecord,
    RunMetrics,
    TimeSeries,
    summarize_runs,
)
from repro.testbed.scenarios import (
    HOSTS_FOR_APPS,
    build_mistral,
    level1_host_groups,
    make_testbed,
)


# -- TimeSeries --------------------------------------------------------------


def test_time_series_basics():
    series = TimeSeries("x")
    series.append(0.0, 1.0)
    series.append(10.0, 3.0)
    assert len(series) == 2
    assert series.mean() == pytest.approx(2.0)
    assert series.maximum() == 3.0
    assert series.total() == 4.0
    assert series.last() == 3.0
    assert list(series) == [(0.0, 1.0), (10.0, 3.0)]


def test_time_series_rejects_time_regression():
    series = TimeSeries("x")
    series.append(10.0, 1.0)
    with pytest.raises(ValueError):
        series.append(5.0, 1.0)


def test_time_series_cumulative_and_window():
    series = TimeSeries("x")
    for step in range(5):
        series.append(step * 10.0, 1.0)
    cumulative = series.cumulative()
    assert cumulative.values == [1.0, 2.0, 3.0, 4.0, 5.0]
    window = series.window(10.0, 30.0)
    assert window.times == [10.0, 20.0, 30.0]


def test_fraction_above():
    series = TimeSeries("x")
    for value in (0.1, 0.5, 0.9, 0.2):
        series.append(len(series.values) * 1.0, value)
    assert series.fraction_above(0.4) == pytest.approx(0.5)
    assert TimeSeries("empty").fraction_above(1.0) == 0.0


def test_empty_series_guards():
    with pytest.raises(ValueError):
        TimeSeries("e").last()
    assert TimeSeries("e").mean() == 0.0


def test_run_metrics_summary():
    run = RunMetrics(strategy="s")
    run.response_times["app"] = TimeSeries("app")
    run.response_times["app"].append(0.0, 0.5)
    run.utility_increments.append(0.0, 2.0)
    run.power_watts.append(0.0, 100.0)
    run.actions.append(ActionRecord(0.0, 5.0, "c", "migrate(x)"))
    assert run.cumulative_utility() == 2.0
    assert run.action_count() == 1
    assert run.response_times["app"].fraction_above(0.4) == 1.0
    rows = summarize_runs([run], target_seconds=0.4)
    assert rows[0]["strategy"] == "s"
    assert rows[0]["viol_app"] == 1.0


# -- scenario builders ---------------------------------------------------------


def test_hosts_for_apps_table():
    assert HOSTS_FOR_APPS == {
        1: 2, 2: 4, 3: 6, 4: 8, 5: 10, 6: 12,
        10: 20, 16: 32, 25: 50,
    }
    # Every tier keeps the paper's 2-hosts-per-app ratio.
    assert all(hosts == 2 * apps for apps, hosts in HOSTS_FOR_APPS.items())
    with pytest.raises(ValueError):
        make_testbed(app_count=9)


def test_level1_host_groups():
    assert level1_host_groups(tuple(f"h{i}" for i in range(4))) == [
        ("h0", "h1", "h2", "h3")
    ]
    groups = level1_host_groups(tuple(f"h{i}" for i in range(8)))
    assert len(groups) == 2
    assert sum(len(group) for group in groups) == 8


# -- testbed construction ----------------------------------------------------------


def test_testbed_anchors(small_testbed):
    target = small_testbed.utility.parameters.target_response_time
    assert 0.3 <= target <= 0.5  # the paper's ~400 ms anchor
    planning = small_testbed.planning_utility.parameters.target_response_time
    assert planning < target
    assert small_testbed.utility.parameters.reward_scale > 1.0


def test_testbed_model_differs_from_truth(small_testbed):
    truth = small_testbed.truth_parameters.tier_demands
    model = small_testbed.model_parameters.tier_demands
    assert any(
        abs(model[key] - truth[key]) > 1e-9 for key in truth
    )


def test_testbed_rejects_missing_traces(small_testbed):
    from repro.testbed import Testbed

    with pytest.raises(ValueError):
        Testbed(
            small_testbed.applications,
            {},
            small_testbed.host_ids,
        )


def test_default_configuration_is_feasible(small_testbed):
    config = small_testbed.default_configuration()
    assert config.is_candidate(small_testbed.catalog, small_testbed.limits)
    caps = {p.cpu_cap for p in config.placements.values()}
    assert caps == {0.4}


def test_workloads_at_covers_all_apps(small_testbed):
    workloads = small_testbed.workloads_at(0.0)
    assert set(workloads) == set(small_testbed.applications.names())
    assert all(rate >= 0 for rate in workloads.values())


# -- short end-to-end runs ------------------------------------------------------------


def test_short_mistral_run_produces_metrics(small_testbed):
    controller, initial = build_mistral(small_testbed)
    metrics = small_testbed.run(
        controller, initial, "mistral-short", horizon=1800.0
    )
    assert len(metrics.power_watts) == 16  # 1800 s / 120 s + t=0 sample
    assert len(metrics.utility_increments) == len(metrics.power_watts)
    assert set(metrics.response_times) == {"RUBiS-1", "RUBiS-2"}
    assert metrics.hosts_powered.values[0] >= 1
    assert all(value > 0 for value in metrics.power_watts.values)


def test_runs_are_deterministic(small_testbed):
    controller_a, initial = build_mistral(small_testbed)
    metrics_a = small_testbed.run(controller_a, initial, "det", horizon=1200.0)
    controller_b, _ = build_mistral(small_testbed)
    metrics_b = small_testbed.run(controller_b, initial, "det", horizon=1200.0)
    assert metrics_a.utility_increments.values == (
        metrics_b.utility_increments.values
    )
    assert metrics_a.power_watts.values == metrics_b.power_watts.values


def test_measured_rt_is_bounded_in_overload(small_testbed):
    """The closed-loop cap keeps measured response times finite."""
    from repro.testbed.scenarios import build_perf_cost

    controller, initial = build_perf_cost(small_testbed)
    metrics = small_testbed.run(
        controller, initial, "bounded", horizon=2400.0
    )
    for series in metrics.response_times.values():
        assert series.maximum() < 60.0


def test_interrupted_run_flushes_trace(small_testbed, tmp_path):
    """Teardown flushes the trace sink even when a run dies mid-window."""
    from repro.telemetry import runtime as telemetry

    controller, initial = build_mistral(small_testbed)
    trace_path = tmp_path / "trace.jsonl"

    original = controller.on_sample
    state = {"calls": 0}

    def interrupting(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] == 3:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    controller.on_sample = interrupting
    telemetry.enable(jsonl_path=str(trace_path))
    try:
        with pytest.raises(KeyboardInterrupt):
            small_testbed.run(controller, initial, "mistral", horizon=7200.0)
        # Read before disable(): the run's own teardown must have
        # flushed the sink to disk.
        names = [
            json.loads(line).get("name")
            for line in trace_path.read_text(encoding="utf-8").splitlines()
        ]
    finally:
        telemetry.disable()
    assert names.count("testbed.run") == 1
    assert "controller.decision" in names
