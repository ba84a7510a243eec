"""Tests for the LQN model and solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.apps.application import ApplicationSet
from repro.apps.rubis import make_rubis_application
from repro.core.config import Configuration, Placement, VmCatalog
from repro.perfmodel.calibration import calibrate_parameters
from repro.perfmodel.lqn import LqnParameters, parameters_for
from repro.perfmodel.solver import LqnSolver, _ps_response


@pytest.fixture(scope="module")
def app():
    return make_rubis_application("RUBiS-1")


@pytest.fixture(scope="module")
def rig(app):
    catalog = VmCatalog(app.vm_descriptors())
    solver = LqnSolver(catalog, parameters_for([app]))
    return catalog, solver


def default_config():
    return Configuration(
        {
            "RUBiS-1-web-0": Placement("h1", 0.4),
            "RUBiS-1-app-0": Placement("h1", 0.4),
            "RUBiS-1-db-0": Placement("h2", 0.4),
        },
        {"h1", "h2"},
    )


# -- parameters --------------------------------------------------------------


def test_parameters_for_matches_application(app):
    params = parameters_for([app])
    assert params.demand("RUBiS-1", "db") == pytest.approx(
        app.mean_tier_demand("db")
    )
    assert params.visits("RUBiS-1", "web") == pytest.approx(1.0)


def test_inflated_demand_includes_virt_overhead(app):
    params = parameters_for([app])
    assert params.inflated_demand("RUBiS-1", "db") == pytest.approx(
        params.demand("RUBiS-1", "db") * 1.08
    )


def test_parameters_validation():
    with pytest.raises(ValueError):
        LqnParameters({("a", "web"): -1.0}, {})
    with pytest.raises(ValueError):
        LqnParameters({}, {}, saturation_knee=1.2)


def test_scaled_applies_multipliers(app):
    params = parameters_for([app])
    scaled = params.scaled({("RUBiS-1", "db"): 2.0})
    assert scaled.demand("RUBiS-1", "db") == pytest.approx(
        2.0 * params.demand("RUBiS-1", "db")
    )
    assert scaled.demand("RUBiS-1", "web") == pytest.approx(
        params.demand("RUBiS-1", "web")
    )


# -- solver behaviour -----------------------------------------------------------


def test_default_config_hits_target_anchor(rig):
    _, solver = rig
    estimate = solver.solve(default_config(), {"RUBiS-1": 50.0})
    # The paper's 400 ms anchor: default config at 50 req/s sits near it.
    assert 0.3 <= estimate.response_times["RUBiS-1"] <= 0.45
    assert not estimate.saturated_apps


def test_response_time_increases_with_load(rig):
    _, solver = rig
    config = default_config()
    previous = 0.0
    for rate in (5.0, 20.0, 35.0, 50.0):
        current = solver.solve(config, {"RUBiS-1": rate}).response_times[
            "RUBiS-1"
        ]
        assert current > previous
        previous = current


def test_bigger_caps_reduce_response_time(rig):
    _, solver = rig
    small = solver.solve(default_config(), {"RUBiS-1": 40.0})
    big_config = Configuration(
        {
            "RUBiS-1-web-0": Placement("h1", 0.4),
            "RUBiS-1-app-0": Placement("h1", 0.4),
            "RUBiS-1-db-0": Placement("h2", 0.8),
        },
        {"h1", "h2"},
    )
    big = solver.solve(big_config, {"RUBiS-1": 40.0})
    assert big.response_times["RUBiS-1"] < small.response_times["RUBiS-1"]


def test_replication_reduces_response_time(rig):
    _, solver = rig
    single = solver.solve(default_config(), {"RUBiS-1": 45.0})
    replicated = solver.solve(
        default_config().replace("RUBiS-1-db-1", Placement("h2", 0.4)),
        {"RUBiS-1": 45.0},
    )
    assert (
        replicated.response_times["RUBiS-1"]
        < single.response_times["RUBiS-1"]
    )


def test_overload_is_finite_and_marked(rig):
    _, solver = rig
    estimate = solver.solve(default_config(), {"RUBiS-1": 90.0})
    assert "RUBiS-1" in estimate.saturated_apps
    assert estimate.response_times["RUBiS-1"] < 1e4
    assert estimate.response_times["RUBiS-1"] > 1.0


def test_dormant_tier_counts_as_saturated(rig):
    _, solver = rig
    config = Configuration(
        {
            "RUBiS-1-web-0": Placement("h1", 0.4),
            "RUBiS-1-app-0": Placement("h1", 0.4),
        },
        {"h1"},
    )
    estimate = solver.solve(config, {"RUBiS-1": 10.0})
    assert "RUBiS-1" in estimate.saturated_apps


def test_host_utilization_includes_dom0_and_caps_at_one(rig):
    _, solver = rig
    estimate = solver.solve(default_config(), {"RUBiS-1": 50.0})
    busy_db = estimate.vm_utilizations["RUBiS-1-db-0"] * 0.4
    assert estimate.host_utilizations["h2"] > busy_db  # Dom-0 share
    heavy = solver.solve(default_config(), {"RUBiS-1": 100.0})
    assert all(value <= 1.0 for value in heavy.host_utilizations.values())


def test_zero_workload_gives_baseline_latency(rig):
    _, solver = rig
    estimate = solver.solve(default_config(), {"RUBiS-1": 0.0})
    assert estimate.response_times["RUBiS-1"] > 0.0
    assert estimate.response_times["RUBiS-1"] < 0.1


def test_unknown_application_rejected(rig):
    _, solver = rig
    with pytest.raises(KeyError):
        solver.solve(default_config(), {"nope": 10.0})


def test_negative_workload_rejected(rig):
    _, solver = rig
    with pytest.raises(ValueError):
        solver.solve(default_config(), {"RUBiS-1": -5.0})


def test_demand_multipliers_shift_response(rig):
    _, solver = rig
    base = solver.solve(default_config(), {"RUBiS-1": 40.0})
    slowed = solver.solve(
        default_config(),
        {"RUBiS-1": 40.0},
        demand_multipliers={("RUBiS-1", "db"): 1.1},
    )
    assert (
        slowed.response_times["RUBiS-1"] > base.response_times["RUBiS-1"]
    )


def test_multi_app_solve(rig):
    app2 = make_rubis_application("RUBiS-2")
    apps = ApplicationSet([make_rubis_application("RUBiS-1"), app2])
    catalog = apps.build_catalog()
    solver = LqnSolver(catalog, parameters_for(apps))
    config = Configuration(
        {
            "RUBiS-1-web-0": Placement("h1", 0.2),
            "RUBiS-1-app-0": Placement("h1", 0.2),
            "RUBiS-1-db-0": Placement("h2", 0.4),
            "RUBiS-2-web-0": Placement("h1", 0.2),
            "RUBiS-2-app-0": Placement("h1", 0.2),
            "RUBiS-2-db-0": Placement("h2", 0.4),
        },
        {"h1", "h2"},
    )
    estimate = solver.solve(config, {"RUBiS-1": 20.0, "RUBiS-2": 30.0})
    assert set(estimate.response_times) == {"RUBiS-1", "RUBiS-2"}
    assert (
        estimate.response_times["RUBiS-2"]
        > estimate.response_times["RUBiS-1"]
    )


# -- the PS curve ------------------------------------------------------------------


def test_ps_response_below_knee_is_hyperbolic():
    assert _ps_response(0.01, 0.5, 0.97, 40.0) == pytest.approx(0.02)


def test_ps_response_is_continuous_at_knee():
    below = _ps_response(0.01, 0.97 - 1e-9, 0.97, 40.0)
    at = _ps_response(0.01, 0.97, 0.97, 40.0)
    assert at == pytest.approx(below, rel=1e-6)


@given(
    st.floats(min_value=1e-4, max_value=0.1),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_property_ps_response_monotone_in_rho(base, rho_a, rho_b):
    low, high = sorted((rho_a, rho_b))
    assert _ps_response(base, low, 0.97, 40.0) <= _ps_response(
        base, high, 0.97, 40.0
    ) + 1e-12


# -- calibration ---------------------------------------------------------------------


def test_calibration_is_close_but_not_exact(app):
    truth = parameters_for([app])
    model = calibrate_parameters(
        truth, np.random.default_rng(0), measurement_noise=0.05
    )
    for key, true_value in truth.tier_demands.items():
        estimated = model.tier_demands[key]
        assert estimated != true_value
        assert abs(estimated - true_value) / true_value < 0.10


def test_calibration_zero_noise_is_exact(app):
    truth = parameters_for([app])
    model = calibrate_parameters(
        truth, np.random.default_rng(0), measurement_noise=0.0
    )
    for key, true_value in truth.tier_demands.items():
        assert model.tier_demands[key] == pytest.approx(true_value)


def test_calibration_validates_arguments(app):
    truth = parameters_for([app])
    with pytest.raises(ValueError):
        calibrate_parameters(truth, np.random.default_rng(0), repetitions=0)
    with pytest.raises(ValueError):
        calibrate_parameters(
            truth, np.random.default_rng(0), measurement_noise=-0.1
        )


# -- batched solving -----------------------------------------------------------


def _assert_states_identical(batched, scalar) -> None:
    assert batched.configuration == scalar.configuration
    assert batched.tiers.keys() == scalar.tiers.keys()
    left, right = batched.estimate, scalar.estimate
    for app, value in right.response_times.items():
        assert left.response_times[app].hex() == value.hex()
    assert left.tier_utilizations == right.tier_utilizations
    assert left.host_utilizations == right.host_utilizations


@pytest.mark.perf_smoke
def test_solve_batch_single_config_matches_solve_state(
    solver, base_configuration
):
    workloads = {"RUBiS-1": 30.0, "RUBiS-2": 55.0}
    (batched,) = solver.solve_batch([base_configuration], workloads)
    _assert_states_identical(
        batched, solver.solve_state(base_configuration, workloads)
    )


@pytest.mark.perf_smoke
def test_solve_batch_many_configs_match_their_scalar_solves(
    solver, base_configuration
):
    workloads = {"RUBiS-1": 48.0, "RUBiS-2": 12.0}
    configurations = [base_configuration]
    for vm_id in base_configuration.placed_vm_ids()[:3]:
        placement = base_configuration.placement_of(vm_id)
        configurations.append(
            base_configuration.replace(
                vm_id, placement.with_cap(0.3 if placement.cpu_cap != 0.3 else 0.5)
            )
        )
    batch = solver.solve_batch(configurations, workloads)
    for batched, configuration in zip(batch, configurations):
        _assert_states_identical(
            batched, solver.solve_state(configuration, workloads)
        )
