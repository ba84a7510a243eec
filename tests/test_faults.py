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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fail_probability": 1.5},
        {"fail_probability": -0.1},
        {"fail_probability": float("nan")},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FaultConfig(**kwargs)


def test_scripted_fault_validation():
    with pytest.raises(ValueError):
        ScriptedActionFault(kind="migrate", occurrence=-1)
    with pytest.raises(ValueError):
        HostCrash(time=-1.0, host_id="host-0")


# ---------------------------------------------------------------------------
# action failures
# ---------------------------------------------------------------------------


def _verdicts(injector, kinds):
    return [injector.action_fails(FakeAction(kind)) for kind in kinds]


def test_inert_injector_never_faults():
    injector = FaultInjector(FaultConfig())
    assert not any(_verdicts(injector, ["migrate"] * 50))
    assert injector.stats.total() == 0


def test_same_seed_same_verdicts():
    config = FaultConfig(seed=11, fail_probability=0.3)
    first = _verdicts(FaultInjector(config), ["migrate"] * 40)
    assert first == _verdicts(FaultInjector(config), ["migrate"] * 40)
    assert True in first and False in first


def test_zero_probability_family_consumes_no_draws():
    """While ``fail_probability`` is zero, attempts of every family
    leave the generator untouched."""
    injector = FaultInjector(FaultConfig(seed=3))
    state = injector._rng.bit_generator.state
    assert not any(_verdicts(injector, ["migrate", "increase_cpu"] * 10))
    assert injector._rng.bit_generator.state == state


def test_scripted_attempts_consume_no_draws():
    """A scripted failure does not shift the dice of later attempts."""
    dice = FaultConfig(seed=3, fail_probability=0.5)
    scripted = FaultConfig(
        seed=3,
        fail_probability=0.5,
        scripted=(ScriptedActionFault(kind="add_replica", occurrence=0),),
    )
    pure = _verdicts(FaultInjector(dice), ["migrate"] * 20)
    injector = FaultInjector(scripted)
    assert _verdicts(injector, ["add_replica"]) == [True]
    assert _verdicts(injector, ["migrate"] * 20) == pure


def test_scripted_occurrences_count_attempts_per_family():
    config = FaultConfig(
        scripted=(
            ScriptedActionFault(kind="migrate", occurrence=0),
            ScriptedActionFault(kind="migrate", occurrence=2),
        ),
    )
    injector = FaultInjector(config)
    # Other families do not advance the migrate occurrence index.
    kinds = ["migrate", "add_replica", "migrate", "add_replica", "migrate"]
    assert _verdicts(injector, kinds) == [True, False, False, False, True]
    assert _verdicts(injector, ["migrate"]) == [False]
    assert injector.stats.action_failures == 2


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
