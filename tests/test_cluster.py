"""Tests for the cluster substrate: hosts, VMs, transients, execution."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterBusyError
from repro.cluster.host import HostSpec, PhysicalHost, PowerState
from repro.cluster.power_meter import PowerMeter
from repro.cluster.transients import TransientModel, TransientSpec
from repro.cluster.vm import VirtualMachine, VmState
from repro.core.actions import (
    AddReplica,
    IncreaseCpu,
    MigrateVm,
    PowerOffHost,
    PowerOnHost,
)
from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
    VmDescriptor,
)
from repro.power.model import HostPowerModel, SystemPowerModel
from repro.sim.engine import SimulationEngine

LIMITS = ConstraintLimits()


def small_catalog():
    return VmCatalog(
        [
            VmDescriptor("a-web-0", "a", "web"),
            VmDescriptor("a-db-0", "a", "db"),
            VmDescriptor("a-db-1", "a", "db"),
            VmDescriptor("b-web-0", "b", "web"),
        ]
    )


def make_cluster(workloads=None):
    engine = SimulationEngine()
    catalog = small_catalog()
    hosts = [HostSpec("h1"), HostSpec("h2"), HostSpec("h3")]
    power = SystemPowerModel.uniform(["h1", "h2", "h3"], HostPowerModel())
    transients = TransientModel(catalog)  # noise-free
    cluster = Cluster(
        hosts,
        catalog,
        LIMITS,
        engine,
        transients,
        power,
        workload_provider=lambda: workloads or {"a": 50.0, "b": 50.0},
    )
    cluster.deploy(
        Configuration(
            {
                "a-web-0": Placement("h1", 0.4),
                "a-db-0": Placement("h2", 0.6),
                "b-web-0": Placement("h1", 0.4),
            },
            {"h1", "h2"},
        )
    )
    return engine, cluster


# -- host state machine ---------------------------------------------------------


def test_host_power_state_machine():
    host = PhysicalHost(HostSpec("h1"), HostPowerModel(), PowerState.OFF)
    assert host.state is PowerState.OFF
    host.begin_boot()
    assert host.state is PowerState.BOOTING
    host.complete_boot()
    assert host.state is PowerState.ON
    host.begin_shutdown()
    host.complete_shutdown()
    assert host.state is PowerState.OFF


def test_host_invalid_transitions_rejected():
    host = PhysicalHost(HostSpec("h1"), HostPowerModel(), PowerState.ON)
    with pytest.raises(RuntimeError):
        host.begin_boot()
    with pytest.raises(RuntimeError):
        host.complete_boot()


def test_host_steady_watts_by_state():
    spec = HostSpec("h1")
    host = PhysicalHost(spec, HostPowerModel(), PowerState.OFF)
    assert host.steady_watts(0.5) == 0.0
    host.begin_boot()
    assert host.steady_watts(0.5) == spec.boot_watts
    host.complete_boot()
    assert host.steady_watts(0.0) == pytest.approx(60.0)


# -- VM state machine --------------------------------------------------------------


def test_vm_lifecycle():
    vm = VirtualMachine(VmDescriptor("x", "a", "web"))
    assert vm.state is VmState.DORMANT
    vm.activate("h1", 0.4)
    assert vm.state is VmState.ACTIVE and vm.host_id == "h1"
    vm.set_cap(0.5)
    assert vm.cpu_cap == 0.5
    vm.begin_migration()
    assert vm.state is VmState.MIGRATING
    assert vm.host_id == "h1"  # serves from the source until cutover
    vm.complete_migration("h2")
    assert vm.host_id == "h2" and vm.state is VmState.ACTIVE
    vm.deactivate()
    assert vm.state is VmState.DORMANT and vm.cpu_cap == 0.0


def test_vm_invalid_transitions():
    vm = VirtualMachine(VmDescriptor("x", "a", "web"))
    with pytest.raises(RuntimeError):
        vm.set_cap(0.5)
    with pytest.raises(RuntimeError):
        vm.begin_migration()
    vm.activate("h1", 0.4)
    with pytest.raises(RuntimeError):
        vm.activate("h1", 0.4)


# -- transient model ---------------------------------------------------------------


def test_migration_footprint_grows_with_load():
    catalog = small_catalog()
    model = TransientModel(catalog)
    config = Configuration(
        {"a-db-0": Placement("h1", 0.4)}, {"h1", "h2"}
    )
    action = MigrateVm("a-db-0", "h2")
    light = model.expected(action, config, {"a": 12.5})
    heavy = model.expected(action, config, {"a": 100.0})
    assert heavy.duration > light.duration
    assert heavy.rt_delta["a"] > light.rt_delta["a"]
    assert heavy.total_power_delta() > light.total_power_delta()


def test_colocated_apps_feel_fraction_of_delta():
    catalog = small_catalog()
    model = TransientModel(catalog)
    config = Configuration(
        {
            "a-db-0": Placement("h1", 0.4),
            "b-web-0": Placement("h1", 0.2),
        },
        {"h1", "h2"},
    )
    spec = model.expected(MigrateVm("a-db-0", "h2"), config, {"a": 50.0, "b": 50.0})
    assert 0.0 < spec.rt_delta["b"] < spec.rt_delta["a"]


def test_power_cycle_footprints():
    catalog = small_catalog()
    model = TransientModel(catalog)
    config = Configuration({}, {"h1"})
    on = model.expected(PowerOnHost("h2"), config, {})
    off = model.expected(PowerOffHost("h1"), config, {})
    assert on.duration == pytest.approx(90.0)
    assert on.power_delta["h2"] == pytest.approx(80.0)
    assert off.duration == pytest.approx(30.0)
    assert off.power_delta["h1"] == pytest.approx(20.0)


def test_sampled_spec_is_noisy_but_close():
    catalog = small_catalog()
    model = TransientModel(catalog, rng=np.random.default_rng(0))
    config = Configuration({"a-db-0": Placement("h1", 0.4)}, {"h1", "h2"})
    action = MigrateVm("a-db-0", "h2")
    expected = model.expected(action, config, {"a": 50.0})
    samples = [model.sample(action, config, {"a": 50.0}) for _ in range(20)]
    durations = [sample.duration for sample in samples]
    assert len(set(durations)) > 1
    assert abs(np.mean(durations) - expected.duration) / expected.duration < 0.15


def test_transient_spec_validation():
    with pytest.raises(ValueError):
        TransientSpec(duration=-1.0)


# -- cluster execution ----------------------------------------------------------------


def test_deploy_sets_host_and_vm_states():
    _, cluster = make_cluster()
    assert cluster.hosts["h1"].state is PowerState.ON
    assert cluster.hosts["h3"].state is PowerState.OFF
    assert cluster.vms["a-web-0"].state is VmState.ACTIVE
    assert cluster.vms["a-db-1"].state is VmState.DORMANT


def test_deploy_rejects_infeasible_configuration():
    engine = SimulationEngine()
    catalog = small_catalog()
    cluster = Cluster(
        [HostSpec("h1")],
        catalog,
        LIMITS,
        engine,
        TransientModel(catalog),
        SystemPowerModel.uniform(["h1"], HostPowerModel()),
        workload_provider=dict,
    )
    with pytest.raises(ValueError):
        cluster.deploy(
            Configuration(
                {
                    "a-web-0": Placement("h1", 0.8),
                    "a-db-0": Placement("h1", 0.8),
                },
                {"h1"},
            )
        )


def test_migration_cuts_over_at_completion():
    engine, cluster = make_cluster()
    cluster.execute_plan([MigrateVm("a-db-0", "h1")])
    engine.run_until(1.0)
    # Still on the source mid-flight.
    assert cluster.configuration.placement_of("a-db-0").host_id == "h2"
    assert cluster.vms["a-db-0"].state is VmState.MIGRATING
    assert cluster.is_adapting()
    engine.run_until(200.0)
    assert cluster.configuration.placement_of("a-db-0").host_id == "h1"
    assert cluster.vms["a-db-0"].state is VmState.ACTIVE
    assert not cluster.is_adapting()


def test_transient_deltas_apply_during_action_only():
    engine, cluster = make_cluster()
    cluster.execute_plan([MigrateVm("a-db-0", "h1")])
    engine.run_until(1.0)
    assert cluster.transient_rt_delta("a") > 0.0
    assert cluster.transient_power_delta() > 0.0
    engine.run_until(300.0)
    assert cluster.transient_rt_delta("a") == 0.0
    assert cluster.transient_power_delta() == 0.0


def test_sequential_plan_and_history():
    engine, cluster = make_cluster()
    handle = cluster.execute_plan(
        [
            IncreaseCpu("a-web-0", 0.1),
            MigrateVm("a-db-0", "h1"),
        ]
    )
    engine.run_until(500.0)
    assert handle.completed
    assert len(handle.records) == 2
    assert handle.records[0].end <= handle.records[1].start
    assert cluster.configuration.placement_of("a-web-0").cpu_cap == pytest.approx(0.5)


def test_power_off_drops_steady_draw_at_start():
    engine, cluster = make_cluster()
    # Empty h2 first.
    cluster.execute_plan([MigrateVm("a-db-0", "h1")])
    engine.run_until(300.0)
    cluster.execute_plan([PowerOffHost("h2")])
    engine.run_until(301.0)
    # Config change applied at start: h2 no longer powered.
    assert "h2" not in cluster.configuration.powered_hosts
    assert cluster.hosts["h2"].state is PowerState.SHUTTING_DOWN
    assert cluster.transient_power_delta() > 0.0  # shutdown surge
    engine.run_until(400.0)
    assert cluster.hosts["h2"].state is PowerState.OFF


def test_power_on_applies_at_completion():
    engine, cluster = make_cluster()
    cluster.execute_plan([PowerOnHost("h3")])
    engine.run_until(10.0)
    assert "h3" not in cluster.configuration.powered_hosts
    assert cluster.hosts["h3"].state is PowerState.BOOTING
    engine.run_until(200.0)
    assert "h3" in cluster.configuration.powered_hosts
    assert cluster.hosts["h3"].state is PowerState.ON


def test_busy_cluster_rejects_second_plan():
    engine, cluster = make_cluster()
    cluster.execute_plan([MigrateVm("a-db-0", "h1")])
    engine.run_until(1.0)
    with pytest.raises(ClusterBusyError):
        cluster.execute_plan([IncreaseCpu("a-web-0", 0.1)])


def test_add_replica_activates_vm():
    engine, cluster = make_cluster()
    cluster.execute_plan([AddReplica("a", "db", "h2", 0.2)])
    engine.run_until(300.0)
    assert cluster.configuration.is_placed("a-db-1")
    assert cluster.vms["a-db-1"].state is VmState.ACTIVE


def test_start_delay_defers_first_action():
    engine, cluster = make_cluster()
    cluster.execute_plan([IncreaseCpu("a-web-0", 0.1)], start_delay=50.0)
    engine.run_until(49.0)
    assert cluster.configuration.placement_of("a-web-0").cpu_cap == pytest.approx(0.4)
    engine.run_until(60.0)
    assert cluster.configuration.placement_of("a-web-0").cpu_cap == pytest.approx(0.5)


def test_empty_plan_completes_immediately():
    _, cluster = make_cluster()
    done = []
    handle = cluster.execute_plan([], on_complete=done.append)
    assert handle.completed
    assert done == [handle]


def test_aborted_plan_reports_reason():
    engine, cluster = make_cluster()
    handle = cluster.execute_plan(
        [MigrateVm("a-db-1", "h1")]  # dormant VM: structurally impossible
    )
    engine.run_until(1.0)
    assert handle.aborted is not None
    assert not cluster.is_adapting()


# -- power meter -------------------------------------------------------------------


def test_meter_reads_steady_plus_transients():
    engine, cluster = make_cluster()
    meter = PowerMeter(cluster, noise_watts=0.0)
    baseline = meter.read({"h1": 0.5, "h2": 0.5})
    cluster.execute_plan([MigrateVm("a-db-0", "h1")])
    engine.run_until(1.0)
    during = meter.read({"h1": 0.5, "h2": 0.5})
    assert during > baseline


def test_meter_includes_infrastructure_and_noise():
    _, cluster = make_cluster()
    silent = PowerMeter(cluster, infrastructure_watts=50.0, noise_watts=0.0)
    noisy = PowerMeter(
        cluster,
        infrastructure_watts=50.0,
        noise_watts=2.0,
        rng=np.random.default_rng(0),
    )
    base = silent.read({})
    assert base >= 50.0
    readings = {noisy.read({}) for _ in range(5)}
    assert len(readings) > 1


def test_meter_validation():
    _, cluster = make_cluster()
    with pytest.raises(ValueError):
        PowerMeter(cluster, infrastructure_watts=-1.0)
    with pytest.raises(ValueError):
        PowerMeter(cluster, noise_watts=-1.0)
