"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import SimulationEngine, SimulationError


def test_clock_starts_at_zero():
    assert SimulationEngine().now == 0.0


def test_events_fire_in_time_order():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(5.0, lambda: fired.append("b"))
    engine.schedule_at(2.0, lambda: fired.append("a"))
    engine.schedule_at(9.0, lambda: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(1.0, lambda: fired.append(1))
    engine.schedule_at(1.0, lambda: fired.append(2))
    engine.run()
    assert fired == [1, 2]


def test_priority_breaks_time_ties():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(1.0, lambda: fired.append("low"), priority=5)
    engine.schedule_at(1.0, lambda: fired.append("high"), priority=-5)
    engine.run()
    assert fired == ["high", "low"]


def test_clock_advances_to_event_time():
    engine = SimulationEngine()
    seen = []
    engine.schedule_at(3.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [3.5]


def test_run_until_stops_at_deadline_and_sets_clock():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(1.0, lambda: fired.append(1))
    engine.schedule_at(10.0, lambda: fired.append(10))
    engine.run_until(5.0)
    assert fired == [1]
    assert engine.now == 5.0
    engine.run_until(20.0)
    assert fired == [1, 10]


def test_schedule_in_past_rejected():
    engine = SimulationEngine()
    engine.schedule_at(5.0, lambda: None)
    engine.run_until(5.0)
    with pytest.raises(SimulationError):
        engine.schedule_at(4.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        SimulationEngine().schedule_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule_at(1.0, lambda: fired.append(1))
    event.cancel()
    engine.run()
    assert fired == []


def test_events_scheduled_from_callbacks_run():
    engine = SimulationEngine()
    fired = []

    def outer():
        engine.schedule_after(2.0, lambda: fired.append(engine.now))

    engine.schedule_at(1.0, outer)
    engine.run()
    assert fired == [3.0]


def test_periodic_fires_on_schedule_and_stops():
    engine = SimulationEngine()
    fired = []
    stop = engine.schedule_periodic(2.0, lambda: fired.append(engine.now), start=0.0)
    engine.run_until(5.0)
    assert fired == [0.0, 2.0, 4.0]
    stop()
    engine.run_until(10.0)
    assert fired == [0.0, 2.0, 4.0]


def test_periodic_default_start_is_one_period():
    engine = SimulationEngine()
    fired = []
    engine.schedule_periodic(3.0, lambda: fired.append(engine.now))
    engine.run_until(7.0)
    assert fired == [3.0, 6.0]


def test_periodic_rejects_nonpositive_period():
    with pytest.raises(SimulationError):
        SimulationEngine().schedule_periodic(0.0, lambda: None)


def test_peek_time_skips_cancelled():
    engine = SimulationEngine()
    first = engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(2.0, lambda: None)
    first.cancel()
    assert engine.peek_time() == 2.0


def test_step_returns_false_on_empty_queue():
    assert SimulationEngine().step() is False


def test_run_until_past_deadline_rejected():
    engine = SimulationEngine()
    engine.run_until(5.0)
    with pytest.raises(SimulationError):
        engine.run_until(1.0)
