"""Chaos hardening: the post-decision invariant referee.

The contract under test (DESIGN.md §10): after every committed decision
the soak runner re-checks it from first principles with
:func:`check_invariants`, and a referee-checked run decides exactly
what an unchecked one does.
"""

from __future__ import annotations

import pytest

from repro.core.config import Configuration, Placement
from repro.faults import InvariantViolation, check_invariants

HOST_IDS = ("host-0", "host-1", "host-2", "host-3")


# ---------------------------------------------------------------------------
# the invariant referee
# ---------------------------------------------------------------------------


@pytest.fixture
def clean_configuration(base_configuration):
    return base_configuration


def test_clean_decision_has_no_violations(
    clean_configuration, catalog, limits
):
    assert (
        check_invariants(
            clean_configuration,
            catalog,
            limits,
            host_ids=HOST_IDS,
            utility={"steady": 10.0, "transient": -2.0, "total": 8.0},
        )
        == []
    )


def test_allocation_overcommit_is_flagged(
    clean_configuration, catalog, limits
):
    over = clean_configuration.replace(
        "RUBiS-1-web-0", Placement("host-0", 0.9)
    ).replace("RUBiS-2-web-0", Placement("host-0", 0.9))
    violations = check_invariants(over, catalog, limits)
    assert any(v.name == "allocation" for v in violations)
    assert any("host-0" in v.detail for v in violations)


def test_unpowered_placement_is_flagged(catalog, limits):
    """A corrupt decode path could resurrect a stale powered set via
    pickling (which bypasses ``__init__``) — the referee re-checks."""
    configuration = Configuration(
        {"RUBiS-1-web-0": Placement("host-0", 0.2)}, {"host-0"}
    )
    items, _ = configuration.__getstate__()
    resurrected = Configuration.__new__(Configuration)
    resurrected.__setstate__((items, frozenset({"host-1"})))
    violations = check_invariants(resurrected, catalog, limits)
    assert any(
        v.name == "allocation" and "unpowered" in v.detail
        for v in violations
    )


def test_missing_replica_zero_is_flagged(
    clean_configuration, catalog, limits
):
    broken = clean_configuration.remove("RUBiS-1-app-0").replace(
        "RUBiS-1-app-1", Placement("host-0", 0.2)
    )
    violations = check_invariants(broken, catalog, limits)
    assert [v.name for v in violations] == ["replica_zero"]
    assert "RUBiS-1-app-0" in violations[0].detail


@pytest.mark.parametrize(
    "utility",
    [
        {"steady": 1.0, "transient": 0.5, "total": 2.0},  # leaks utility
        {"steady": 1.0},  # missing Eq. 3 terms
        {"steady": "x", "transient": 0.0, "total": 0.0},  # unparsable
    ],
)
def test_eq3_conservation_violations(
    utility, clean_configuration, catalog, limits
):
    violations = check_invariants(
        clean_configuration, catalog, limits, utility=utility
    )
    assert [v.name for v in violations] == ["conservation"]


def test_eq3_conservation_tolerates_float_slack(
    clean_configuration, catalog, limits
):
    assert (
        check_invariants(
            clean_configuration,
            catalog,
            limits,
            utility={
                "steady": 1e6,
                "transient": 2.0,
                "total": 1e6 + 2.0 + 1e-3,  # within 1e-6 * scale
            },
        )
        == []
    )


def test_no_utility_breakdown_skips_conservation(
    clean_configuration, catalog, limits
):
    assert check_invariants(clean_configuration, catalog, limits) == []


def test_violations_are_counted_and_traced(
    clean_configuration, catalog, limits
):
    from repro import telemetry

    broken = clean_configuration.remove("RUBiS-1-app-0").replace(
        "RUBiS-1-app-1", Placement("host-0", 0.2)
    )
    telemetry.enable()
    try:
        violations = check_invariants(
            broken, catalog, limits, context="unit@t=0"
        )
        counters = telemetry.runtime.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
    assert len(violations) == 1
    assert isinstance(violations[0], InvariantViolation)
    assert counters.get("chaos.invariant_violations") == 1


# ---------------------------------------------------------------------------
# testbed integration: the referee rides along, the clean path is clean
# ---------------------------------------------------------------------------


def test_invariant_checked_run_is_clean_and_bit_identical(small_testbed):
    from repro.testbed import build_mistral

    horizon = 1800.0
    controller, initial = build_mistral(small_testbed)
    plain = small_testbed.run(controller, initial, "x", horizon=horizon)
    controller, initial = build_mistral(small_testbed)
    checked = small_testbed.run(
        controller, initial, "x", horizon=horizon, invariants=True
    )
    assert checked.invariant_violations == []
    assert plain.utility_increments.values == checked.utility_increments.values
    assert plain.power_watts.values == checked.power_watts.values
    assert [
        (record.start, record.end, record.description)
        for record in plain.actions
    ] == [
        (record.start, record.end, record.description)
        for record in checked.actions
    ]
