"""Fault injector: config validation, determinism, and the off contract."""

import pytest

from repro.faults import (
    FaultConfig,
    FaultInjector,
    HostCrash,
    ScriptedActionFault,
)


class FakeAction:
    """Just enough action for the injector: a ``kind`` attribute."""

    def __init__(self, kind: str) -> None:
        self.kind = kind


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_default_config_is_inert():
    assert FaultConfig().is_inert()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"default_fail_probability": 0.1},
        {"default_stall_probability": 0.1},
        {"action_fail_probability": {"migrate": 0.5}},
        {"action_stall_probability": {"migrate": 0.5}},
        {"scripted": (ScriptedActionFault(kind="migrate", occurrence=0),)},
        {"host_crashes": (HostCrash(time=10.0, host_id="host-1"),)},
        {"sample_drop_probability": 0.1},
        {"sample_stale_probability": 0.1},
    ],
)
def test_any_fault_surface_defeats_inertness(kwargs):
    assert not FaultConfig(**kwargs).is_inert()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"default_fail_probability": 1.5},
        {"default_stall_probability": -0.1},
        {"action_fail_probability": {"migrate": 2.0}},
        {"sample_drop_probability": 0.6, "sample_stale_probability": 0.6},
        {"stall_factor": 0.5},
        {"fail_fraction": 0.0},
        {"fail_fraction": 1.5},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FaultConfig(**kwargs)


def test_scripted_fault_validation():
    with pytest.raises(ValueError):
        ScriptedActionFault(kind="migrate", occurrence=-1)
    with pytest.raises(ValueError):
        ScriptedActionFault(kind="migrate", occurrence=0, mode="explode")
    with pytest.raises(ValueError):
        HostCrash(time=-1.0, host_id="host-0")


# ---------------------------------------------------------------------------
# action faults
# ---------------------------------------------------------------------------


def test_inert_injector_never_faults():
    injector = FaultInjector(FaultConfig())
    for _ in range(50):
        assert injector.action_fault(FakeAction("migrate")) is None
    assert injector.stats.total() == 0


def test_same_seed_same_verdicts():
    config = FaultConfig(
        seed=11, default_fail_probability=0.3, default_stall_probability=0.2
    )
    verdict_runs = []
    for _ in range(2):
        injector = FaultInjector(config)
        verdict_runs.append(
            [
                fault.mode if fault else None
                for fault in (
                    injector.action_fault(FakeAction("migrate"))
                    for _ in range(40)
                )
            ]
        )
    assert verdict_runs[0] == verdict_runs[1]
    assert "fail" in verdict_runs[0]
    assert "stall" in verdict_runs[0]


def test_zero_probability_family_consumes_no_draws():
    """Attempts of fault-free families must not shift other draws."""
    config = FaultConfig(seed=3, action_fail_probability={"migrate": 0.5})

    interleaved = FaultInjector(config)
    verdicts = []
    for _ in range(20):
        # increase_cpu has every knob at zero: no draw consumed.
        assert interleaved.action_fault(FakeAction("increase_cpu")) is None
        fault = interleaved.action_fault(FakeAction("migrate"))
        verdicts.append(fault.mode if fault else None)

    pure = FaultInjector(config)
    expected = []
    for _ in range(20):
        fault = pure.action_fault(FakeAction("migrate"))
        expected.append(fault.mode if fault else None)
    assert verdicts == expected


def test_scripted_occurrences_count_attempts_per_family():
    config = FaultConfig(
        scripted=(
            ScriptedActionFault(kind="migrate", occurrence=0),
            ScriptedActionFault(kind="migrate", occurrence=1, mode="stall"),
        ),
        stall_factor=6.0,
    )
    injector = FaultInjector(config)
    first = injector.action_fault(FakeAction("migrate"))
    assert first is not None and first.mode == "fail"
    # Other families do not advance the migrate occurrence index.
    assert injector.action_fault(FakeAction("add_replica")) is None
    second = injector.action_fault(FakeAction("migrate"))
    assert second is not None and second.mode == "stall"
    assert second.stall_factor == 6.0
    assert injector.action_fault(FakeAction("migrate")) is None
    assert injector.stats.action_failures == 1
    assert injector.stats.action_stalls == 1


# ---------------------------------------------------------------------------
# monitoring faults
# ---------------------------------------------------------------------------


def test_perturb_sample_drop():
    injector = FaultInjector(FaultConfig(sample_drop_probability=1.0))
    observed, fault = injector.perturb_sample({"a": 10.0})
    assert observed is None and fault == "dropped"
    assert injector.stats.samples_dropped == 1


def test_perturb_sample_stale_replays_last_delivered():
    injector = FaultInjector(FaultConfig(sample_stale_probability=1.0))
    # Nothing delivered yet: staleness degrades to a clean delivery.
    observed, fault = injector.perturb_sample({"a": 10.0})
    assert observed == {"a": 10.0} and fault is None
    observed, fault = injector.perturb_sample({"a": 99.0})
    assert observed == {"a": 10.0} and fault == "stale"
    assert injector.stats.samples_stale == 1


def test_perturb_sample_clean_path_consumes_no_draws():
    injector = FaultInjector(FaultConfig())
    before = injector._rng.bit_generator.state
    observed, fault = injector.perturb_sample({"a": 1.0})
    assert observed == {"a": 1.0} and fault is None
    assert injector._rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# the off contract: no faults config == inert faults config
# ---------------------------------------------------------------------------


def test_inert_fault_config_is_bit_identical_to_no_faults(small_testbed):
    """Attaching an inert injector must not change a run at all."""
    from repro.testbed import build_mistral

    horizon = 1800.0
    controller, initial = build_mistral(small_testbed)
    plain = small_testbed.run(controller, initial, "x", horizon=horizon)
    controller, initial = build_mistral(small_testbed)
    inert = small_testbed.run(
        controller, initial, "x", horizon=horizon, faults=FaultConfig()
    )

    assert plain.utility_increments.values == inert.utility_increments.values
    assert plain.power_watts.values == inert.power_watts.values
    for app_name, series in plain.response_times.items():
        assert series.values == inert.response_times[app_name].values
    assert [
        (record.start, record.end, record.description)
        for record in plain.actions
    ] == [
        (record.start, record.end, record.description)
        for record in inert.actions
    ]
    assert inert.fault_stats is not None
    assert inert.fault_stats.total() == 0
