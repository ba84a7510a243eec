"""Tests for the power model and its calibration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.power.calibration import calibrate_power_model, fit_exponent
from repro.power.model import HostPowerModel, SystemPowerModel


# -- host curve -----------------------------------------------------------------


def test_endpoints():
    model = HostPowerModel(idle_watts=60, busy_watts=100, exponent=1.4)
    assert model.watts(0.0) == pytest.approx(60.0)
    assert model.watts(1.0) == pytest.approx(100.0)


def test_curve_is_concave_above_linear():
    model = HostPowerModel(idle_watts=60, busy_watts=100, exponent=1.4)
    linear = 60 + 40 * 0.5
    assert model.watts(0.5) > linear


def test_utilization_clamped():
    model = HostPowerModel()
    assert model.watts(-0.5) == model.watts(0.0)
    assert model.watts(1.5) == model.watts(1.0)


def test_validation():
    with pytest.raises(ValueError):
        HostPowerModel(idle_watts=-1)
    with pytest.raises(ValueError):
        HostPowerModel(idle_watts=100, busy_watts=60)
    with pytest.raises(ValueError):
        HostPowerModel(exponent=2.5)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_property_monotone_and_bounded(rho_a, rho_b, exponent):
    model = HostPowerModel(idle_watts=60, busy_watts=100, exponent=exponent)
    low, high = sorted((rho_a, rho_b))
    assert model.watts(low) <= model.watts(high) + 1e-9
    assert 60.0 - 1e-9 <= model.watts(rho_a) <= 100.0 + 1e-9


# -- system aggregation ------------------------------------------------------------


def test_total_watts_sums_powered_hosts():
    system = SystemPowerModel.uniform(["h1", "h2", "h3"], HostPowerModel())
    total = system.total_watts(["h1", "h2"], {"h1": 1.0})
    assert total == pytest.approx(100.0 + 60.0)


def test_unpowered_hosts_draw_nothing():
    system = SystemPowerModel.uniform(["h1", "h2"], HostPowerModel())
    assert system.total_watts([], {}) == 0.0


def test_unknown_host_rejected():
    system = SystemPowerModel.uniform(["h1"], HostPowerModel())
    with pytest.raises(KeyError):
        system.total_watts(["h9"], {})
    with pytest.raises(KeyError):
        system.host_model("h9")


#: Sums the draws of a frozenset of powered hosts and prints the result
#: bit-exactly.  The utilizations are chosen so that at least two
#: summation orders of the four hosts round differently.
_TOTAL_WATTS_SCRIPT = """
from repro.power.model import HostPowerModel, SystemPowerModel
utilizations = {"host-0": 0.05, "host-1": 0.05, "host-2": 0.05, "host-3": 0.1}
system = SystemPowerModel.uniform(utilizations, HostPowerModel())
print(system.total_watts(frozenset(utilizations), utilizations).hex())
"""


def test_total_watts_is_independent_of_hash_seed():
    """A frozenset's iteration order follows PYTHONHASHSEED; the system
    draw must not, or every steady estimate (and so every decision)
    would depend on the hash seed of the process."""
    src = Path(repro.__file__).resolve().parents[1]
    results = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _TOTAL_WATTS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        results.add(done.stdout.strip())
    assert len(results) == 1, results


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        SystemPowerModel({})


def test_per_host_models():
    system = SystemPowerModel(
        {
            "big": HostPowerModel(idle_watts=100, busy_watts=200),
            "small": HostPowerModel(idle_watts=30, busy_watts=50),
        }
    )
    assert system.host_model("big").watts(0.0) == pytest.approx(100.0)
    assert system.host_model("small").watts(0.0) == pytest.approx(30.0)
    assert set(system.host_ids()) == {"big", "small"}


# -- calibration --------------------------------------------------------------------


def test_fit_exponent_recovers_truth_without_noise():
    truth = HostPowerModel(exponent=1.6)
    rho = np.linspace(0.0, 1.0, 21)
    watts = np.array([truth.watts(u) for u in rho])
    fitted = fit_exponent(rho, watts, truth.idle_watts, truth.busy_watts)
    assert fitted == pytest.approx(1.6, abs=0.01)


def test_fit_exponent_validates_inputs():
    with pytest.raises(ValueError):
        fit_exponent(np.array([0.1]), np.array([1.0, 2.0]), 60, 100)
    with pytest.raises(ValueError):
        fit_exponent(np.array([0.1]), np.array([61.0]), 100, 60)
    with pytest.raises(ValueError):
        fit_exponent(np.array([0.1]), np.array([61.0]), 60, 100, bounds=(2, 1))


def test_calibrated_model_close_to_truth():
    truth = HostPowerModel(idle_watts=60, busy_watts=100, exponent=1.45)
    fitted = calibrate_power_model(truth, np.random.default_rng(3))
    assert abs(fitted.exponent - truth.exponent) < 0.25
    assert abs(fitted.idle_watts - truth.idle_watts) < 3.0
    assert abs(fitted.busy_watts - truth.busy_watts) < 3.0
    # Prediction error across the sweep stays small (Fig. 5c).
    errors = [
        abs(fitted.watts(u) - truth.watts(u)) / truth.watts(u)
        for u in np.linspace(0, 1, 11)
    ]
    assert max(errors) < 0.05


def test_calibration_validates_arguments():
    truth = HostPowerModel()
    with pytest.raises(ValueError):
        calibrate_power_model(truth, np.random.default_rng(0), sweep_points=2)
    with pytest.raises(ValueError):
        calibrate_power_model(truth, np.random.default_rng(0), repetitions=0)


def test_calibration_is_deterministic_per_seed():
    truth = HostPowerModel(exponent=1.3)
    a = calibrate_power_model(truth, np.random.default_rng(9))
    b = calibrate_power_model(truth, np.random.default_rng(9))
    assert a == b
