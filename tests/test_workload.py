"""Tests for traces, the ARMA estimator, and the workload monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.arma import StabilityIntervalEstimator
from repro.workload.monitor import WorkloadMonitor
from repro.workload.traces import (
    EXPERIMENT_DURATION,
    Trace,
    hp_trace,
    standard_traces,
    world_cup_trace,
)


# -- traces -------------------------------------------------------------------


def test_trace_interpolates_breakpoints():
    trace = Trace(
        [(0.0, 10.0), (100.0, 20.0)], ripple_amplitude=0.0
    )
    assert trace.baseline(50.0) == pytest.approx(15.0)
    assert trace.rate(50.0) == pytest.approx(15.0)
    assert trace(0.0) == pytest.approx(10.0)


def test_trace_clamps_outside_horizon():
    trace = Trace([(10.0, 5.0), (20.0, 9.0)], ripple_amplitude=0.0)
    assert trace.baseline(0.0) == 5.0
    assert trace.baseline(100.0) == 9.0


def test_trace_respects_floor_and_ceiling():
    trace = Trace(
        [(0.0, 1.0), (100.0, 99.0)],
        ripple_amplitude=10.0,
        floor=0.0,
        ceiling=100.0,
    )
    for t in range(0, 101, 5):
        assert 0.0 <= trace.rate(float(t)) <= 100.0


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace([(0.0, 1.0)])
    with pytest.raises(ValueError):
        Trace([(10.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError):
        Trace([(0.0, 1.0), (0.0, 2.0)])


def test_sample_series_step():
    trace = Trace([(0.0, 10.0), (100.0, 10.0)], ripple_amplitude=0.0)
    series = trace.sample_series(0.0, 100.0, 25.0)
    assert [t for t, _ in series] == [0.0, 25.0, 50.0, 75.0, 100.0]
    with pytest.raises(ValueError):
        trace.sample_series(0.0, 10.0, 0.0)


def test_world_cup_has_flash_crowd_and_evening_peak():
    trace = world_cup_trace()
    flash = max(trace.rate(t) for t in range(6700, 8100, 60))
    evening = max(trace.rate(t) for t in range(15600, 19500, 60))
    afternoon = max(trace.rate(t) for t in range(0, 5000, 60))
    assert flash > 85.0
    assert evening > 80.0
    assert afternoon < 40.0


def test_hp_trace_is_moderate():
    trace = hp_trace()
    horizon = int(EXPERIMENT_DURATION)
    peak = max(trace.rate(t) for t in range(0, horizon + 1, 60))
    assert 35.0 <= peak <= 60.0


def test_variants_differ():
    a, b = world_cup_trace(0), world_cup_trace(1)
    assert any(
        abs(a.rate(t) - b.rate(t)) > 1.0 for t in range(0, 23400, 600)
    )


def test_standard_traces_assignment():
    traces = standard_traces(["A", "B", "C", "D"])
    assert traces["A"].name.startswith("world-cup")
    assert traces["C"].name.startswith("hp")
    assert len(traces) == 4


# -- ARMA estimator ---------------------------------------------------------------


def test_estimator_converges_on_constant_series():
    estimator = StabilityIntervalEstimator(initial_estimate=500.0)
    for _ in range(10):
        estimate = estimator.observe(300.0)
    assert estimate == pytest.approx(300.0, rel=0.05)


def test_estimator_tracks_level_shift():
    estimator = StabilityIntervalEstimator()
    for _ in range(6):
        estimator.observe(120.0)
    for _ in range(6):
        estimate = estimator.observe(600.0)
    assert estimate == pytest.approx(600.0, rel=0.2)


def test_estimator_smooths_alternating_series():
    estimator = StabilityIntervalEstimator()
    values = [240.0, 480.0] * 8
    for value in values:
        estimate = estimator.observe(value)
    # A good smoother should sit near the mean, not chase the ends.
    assert 280.0 < estimate < 440.0


def test_estimator_validation():
    with pytest.raises(ValueError):
        StabilityIntervalEstimator(history=0)
    with pytest.raises(ValueError):
        StabilityIntervalEstimator(gamma=2.0)
    with pytest.raises(ValueError):
        StabilityIntervalEstimator(initial_estimate=0.0)
    with pytest.raises(ValueError):
        StabilityIntervalEstimator().observe(-1.0)


def test_estimator_trace_records_states():
    estimator = StabilityIntervalEstimator()
    estimator.observe(100.0)
    estimator.observe(200.0)
    assert len(estimator.trace) == 2
    assert estimator.trace[0].measured == 100.0
    assert 0.0 <= estimator.trace[1].beta <= 1.0


@given(st.lists(st.floats(min_value=1.0, max_value=10_000.0), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_property_estimate_within_observed_range(values):
    estimator = StabilityIntervalEstimator(initial_estimate=values[0])
    for value in values:
        estimate = estimator.observe(value)
    # Convex combination of measurements: never outside their envelope.
    assert min(values) - 1e-6 <= estimate <= max(values) + 1e-6


# -- workload monitor ----------------------------------------------------------------


def test_first_observation_establishes_bands():
    monitor = WorkloadMonitor(band_width=8.0)
    escape = monitor.observe(0.0, {"a": 50.0})
    assert escape is not None
    assert escape.measured_interval == 0.0
    assert escape.escaped_apps == ("a",)
    assert escape.workloads == {"a": 50.0}
    # The band is centered on that first sample.
    assert monitor.observe(120.0, {"a": 53.9}) is None


def test_within_band_is_quiet():
    monitor = WorkloadMonitor(band_width=8.0)
    monitor.observe(0.0, {"a": 50.0})
    assert monitor.observe(120.0, {"a": 53.9}) is None
    assert monitor.observe(240.0, {"a": 46.1}) is None


def test_escape_measures_interval_and_recentres():
    monitor = WorkloadMonitor(band_width=8.0)
    monitor.observe(0.0, {"a": 50.0, "b": 20.0})
    escape = monitor.observe(360.0, {"a": 60.0, "b": 21.0})
    assert escape is not None
    assert escape.escaped_apps == ("a",)
    assert escape.measured_interval == pytest.approx(360.0)
    # both bands re-center on the current workloads
    assert monitor.observe(480.0, {"a": 63.9, "b": 24.9}) is None
    escape = monitor.observe(600.0, {"a": 60.0, "b": 25.1})
    assert escape.escaped_apps == ("b",)


def test_zero_band_escapes_every_sample():
    monitor = WorkloadMonitor(band_width=0.0)
    monitor.observe(0.0, {"a": 50.0})
    for step in range(1, 5):
        escape = monitor.observe(step * 120.0, {"a": 50.0 + 0.001 * step})
        assert escape is not None


def test_monitor_tracks_only_named_apps():
    monitor = WorkloadMonitor(band_width=8.0, app_names=("a",))
    monitor.observe(0.0, {"a": 50.0, "b": 10.0})
    assert monitor.observe(120.0, {"a": 51.0, "b": 90.0}) is None


def test_measured_intervals_exclude_bootstrap():
    monitor = WorkloadMonitor(band_width=1.0)
    monitor.observe(0.0, {"a": 10.0})
    monitor.observe(120.0, {"a": 20.0})
    monitor.observe(360.0, {"a": 30.0})
    intervals = [escape.measured_interval for escape in monitor.escapes]
    # The bootstrap escape measures nothing; the real ones measure the
    # time since the previous escape.
    assert intervals == [0.0, 120.0, 240.0]


def test_monitor_validation():
    with pytest.raises(ValueError):
        WorkloadMonitor(band_width=-1.0)


def test_escape_feeds_arma_estimator():
    monitor = WorkloadMonitor(band_width=1.0)
    monitor.observe(0.0, {"a": 10.0})
    escape = monitor.observe(300.0, {"a": 20.0})
    assert escape.estimated_next_interval > 0.0
    assert len(monitor.estimator.trace) == 1
