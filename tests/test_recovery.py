"""Recovery machinery: retries, rollback, degradation, determinism."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.host import HostSpec, PowerState
from repro.cluster.transients import TransientModel
from repro.cluster.vm import VmState
from repro.core.actions import IncreaseCpu, MigrateVm, PowerOnHost
from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
    VmDescriptor,
)
from repro.faults import (
    DegradationLadder,
    DegradationSettings,
    FaultConfig,
    FaultInjector,
    RecoveryPolicy,
    ScriptedActionFault,
)
from repro.power.model import HostPowerModel, SystemPowerModel
from repro.sim.engine import SimulationEngine
from repro.telemetry import runtime
from repro.telemetry.trace import RingBufferSink

LIMITS = ConstraintLimits()


@pytest.fixture(autouse=True)
def telemetry_off():
    runtime.disable()
    runtime.registry.reset()
    yield
    runtime.disable()
    runtime.registry.reset()


def make_cluster():
    engine = SimulationEngine()
    catalog = VmCatalog(
        [
            VmDescriptor("a-web-0", "a", "web"),
            VmDescriptor("a-db-0", "a", "db"),
            VmDescriptor("b-web-0", "b", "web"),
        ]
    )
    hosts = [HostSpec("h1"), HostSpec("h2"), HostSpec("h3")]
    power = SystemPowerModel.uniform(["h1", "h2", "h3"], HostPowerModel())
    cluster = Cluster(
        hosts,
        catalog,
        LIMITS,
        engine,
        TransientModel(catalog),  # noise-free
        power,
        workload_provider=lambda: {"a": 50.0, "b": 50.0},
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


def migrate_all_attempts_fail():
    """An injector that deterministically fails every migrate attempt."""
    return FaultInjector(
        FaultConfig(
            scripted=tuple(
                ScriptedActionFault(kind="migrate", occurrence=index)
                for index in range(10)
            )
        )
    )


# ---------------------------------------------------------------------------
# RecoveryPolicy bounds
# ---------------------------------------------------------------------------


def test_backoff_is_exponential_and_capped():
    policy = RecoveryPolicy()
    assert [policy.backoff_seconds(n) for n in (1, 2, 3, 4, 5)] == [
        10.0,
        20.0,
        40.0,
        80.0,
        120.0,
    ]
    custom = RecoveryPolicy(
        backoff_base_seconds=5.0, backoff_factor=3.0, backoff_max_seconds=40.0
    )
    assert [custom.backoff_seconds(n) for n in (1, 2, 3, 4)] == [
        5.0,
        15.0,
        40.0,
        40.0,
    ]
    with pytest.raises(ValueError):
        policy.backoff_seconds(0)


def test_timeout_never_below_sampled_duration():
    policy = RecoveryPolicy()
    assert policy.timeout_seconds(20.0) == 60.0
    assert policy.timeout_seconds(1.0) == 45.0  # the floor
    # The timeout always exceeds the expected duration, so an unstalled
    # action can never spuriously time out.
    for duration in (0.5, 10.0, 44.9, 45.0, 100.0, 1000.0):
        assert policy.timeout_seconds(duration) >= duration


def test_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_base_seconds=50.0, backoff_max_seconds=10.0)
    with pytest.raises(ValueError):
        RecoveryPolicy(timeout_factor=0.9)


# ---------------------------------------------------------------------------
# retries and backoff timing
# ---------------------------------------------------------------------------


def test_retry_waits_the_policy_backoff():
    engine, cluster = make_cluster()
    injector = FaultInjector(
        FaultConfig(
            scripted=(
                ScriptedActionFault(kind="migrate", occurrence=0),
                ScriptedActionFault(kind="migrate", occurrence=1),
            )
        )
    )
    policy = RecoveryPolicy()
    execution = cluster.execute_plan(
        [MigrateVm("a-db-0", "h1")],
        fault_injector=injector,
        recovery=policy,
    )
    engine.run_until(3600.0)

    assert execution.completed and execution.aborted is None
    assert execution.failures == 2 and execution.retries == 2
    attempts = [record for record in execution.records if record.phase == "plan"]
    assert [record.outcome for record in attempts] == ["failed", "failed", "ok"]
    assert [record.attempt for record in attempts] == [1, 2, 3]
    # Retry n starts exactly backoff_seconds(n) after failure n surfaces.
    assert attempts[1].start - attempts[0].end == pytest.approx(
        policy.backoff_seconds(1)
    )
    assert attempts[2].start - attempts[1].end == pytest.approx(
        policy.backoff_seconds(2)
    )
    # The migration landed on the third try.
    assert cluster.configuration.placement_of("a-db-0").host_id == "h1"
    assert cluster.vms["a-db-0"].state is VmState.ACTIVE


def test_stalled_action_completes_late_with_outcome_stalled():
    engine, cluster = make_cluster()
    injector = FaultInjector(
        FaultConfig(
            scripted=(
                ScriptedActionFault(
                    kind="increase_cpu", occurrence=0, mode="stall"
                ),
            ),
            stall_factor=2.0,  # below the x3 timeout: completes late
        )
    )
    execution = cluster.execute_plan(
        [IncreaseCpu("a-web-0")],
        fault_injector=injector,
        recovery=RecoveryPolicy(min_timeout_seconds=0.001),
    )
    engine.run_until(3600.0)
    assert execution.completed and execution.aborted is None
    (record,) = execution.records
    assert record.outcome == "stalled"
    assert record.end - record.start == pytest.approx(2.0 * record.spec.duration)
    assert cluster.configuration.placement_of("a-web-0").cpu_cap == 0.5


def test_stall_past_timeout_counts_as_failure():
    engine, cluster = make_cluster()
    injector = FaultInjector(
        FaultConfig(
            scripted=(
                ScriptedActionFault(
                    kind="increase_cpu", occurrence=0, mode="stall"
                ),
            ),
            stall_factor=5.0,  # above the x3 timeout: abandoned
        )
    )
    execution = cluster.execute_plan(
        [IncreaseCpu("a-web-0")],
        fault_injector=injector,
        recovery=RecoveryPolicy(min_timeout_seconds=0.001),
    )
    engine.run_until(3600.0)
    assert execution.completed
    assert execution.records[0].outcome == "timeout"
    assert execution.failures >= 1
    # Abandoned at the timeout, not after the full stalled duration.
    first = execution.records[0]
    assert first.end - first.start == pytest.approx(3.0 * first.spec.duration)


# ---------------------------------------------------------------------------
# rollback
# ---------------------------------------------------------------------------


def test_rollback_restores_exact_prior_configuration():
    engine, cluster = make_cluster()
    before = cluster.configuration
    execution = cluster.execute_plan(
        [IncreaseCpu("a-web-0"), MigrateVm("a-db-0", "h1")],
        fault_injector=migrate_all_attempts_fail(),
        recovery=RecoveryPolicy(max_attempts=3),
    )
    engine.run_until(7200.0)

    assert execution.aborted is not None
    assert "failed after 3 attempts" in execution.aborted
    assert execution.rolled_back
    # The applied prefix (the cap increase) was undone by its inverse.
    rollback = [
        record for record in execution.records if record.phase == "rollback"
    ]
    assert [record.action.kind for record in rollback] == ["decrease_cpu"]
    assert cluster.configuration == before
    assert cluster.configuration.placement_of("a-web-0").cpu_cap == 0.4
    assert cluster.vms["a-db-0"].state is VmState.ACTIVE
    assert cluster.vms["a-db-0"].host_id == "h2"
    assert not cluster.is_adapting()


def test_crash_mid_plan_rolls_back_and_skips_dead_inverses():
    engine, cluster = make_cluster()
    runtime.enable()
    execution = cluster.execute_plan(
        [MigrateVm("a-web-0", "h2"), MigrateVm("a-db-0", "h1")],
        fault_injector=FaultInjector(FaultConfig()),
        recovery=RecoveryPolicy(),
    )
    # Step until the first migration landed and the second is in flight,
    # then kill the host both VMs now depend on.
    time = 0.0
    while True:
        time += 1.0
        engine.run_until(time)
        assert time < 600.0, "plan never reached its second action"
        if (
            len(execution.records) >= 2
            and execution.records[1].action.kind == "migrate"
            and execution.records[1].action.vm_id == "a-db-0"
            and engine.now < execution.records[1].end
        ):
            break
    stranded = cluster.crash_host("h2")
    engine.run_until(time + 3600.0)

    # a-web-0 landed on h2; a-db-0 was still serving from h2 mid-copy.
    assert set(stranded) == {"a-web-0", "a-db-0"}
    assert execution.aborted == "host crash: h2"
    assert execution.records[1].outcome == "aborted"
    assert execution.rolled_back
    # The inverse of the landed migration (a-web-0 back to h1) is
    # inapplicable — the crash already stranded the VM — so rollback
    # skips it instead of failing.
    counters = runtime.registry.snapshot()["counters"]
    assert counters.get("recovery.rollback_skips", 0) == 1
    assert cluster.hosts["h2"].state is PowerState.OFF
    config = cluster.configuration
    assert config.placement_of("a-web-0") is None
    assert config.placement_of("a-db-0") is None
    assert "h2" not in config.powered_hosts
    assert config.violations(cluster.catalog, LIMITS) == []
    assert not cluster.is_adapting()


def test_crash_during_boot_aborts_power_on_cleanly():
    engine, cluster = make_cluster()
    execution = cluster.execute_plan(
        [PowerOnHost("h3"), MigrateVm("a-db-0", "h3")],
        fault_injector=FaultInjector(FaultConfig()),
        recovery=RecoveryPolicy(),
    )
    before = cluster.configuration
    engine.run_until(5.0)  # boot takes ~90 s: still booting
    assert cluster.hosts["h3"].state is PowerState.BOOTING
    cluster.crash_host("h3")
    engine.run_until(7200.0)

    assert execution.aborted == "host crash: h3"
    assert not execution.rolled_back  # nothing had landed yet
    assert cluster.hosts["h3"].state is PowerState.OFF
    assert cluster.configuration == before
    assert cluster.vms["a-db-0"].state is VmState.ACTIVE
    assert cluster.vms["a-db-0"].host_id == "h2"


# ---------------------------------------------------------------------------
# degradation ladder
# ---------------------------------------------------------------------------


def test_ladder_escalates_on_fault_burst():
    ladder = DegradationLadder(
        DegradationSettings(fault_window_seconds=900.0, escalate_after=3)
    )
    assert ladder.level == "normal"
    assert ladder.record_fault(0.0, "action_failure") is None
    assert ladder.record_fault(100.0, "action_failure") is None
    assert ladder.record_fault(200.0, "host_crash") == "pruned"
    # The window restarts after escalation.
    assert ladder.record_fault(300.0, "action_failure") is None
    assert ladder.record_fault(310.0, "action_failure") is None
    assert ladder.record_fault(320.0, "action_failure") == "noop"
    # The top rung cannot escalate further.
    for t in (330.0, 340.0, 350.0):
        assert ladder.record_fault(t, "action_failure") is None
    assert ladder.level == "noop"


def test_ladder_ignores_faults_outside_the_window():
    ladder = DegradationLadder(
        DegradationSettings(fault_window_seconds=100.0, escalate_after=2)
    )
    assert ladder.record_fault(0.0, "action_failure") is None
    # 200s later: the first fault has left the sliding window.
    assert ladder.record_fault(200.0, "action_failure") is None
    assert ladder.level == "normal"
    assert ladder.record_fault(250.0, "action_failure") == "pruned"


def test_deadline_overrun_escalates_immediately():
    ladder = DegradationLadder()
    assert ladder.record_fault(10.0, "deadline") == "pruned"
    assert ladder.record_fault(20.0, "deadline") == "noop"


def test_ladder_recovers_one_rung_per_quiet_period():
    settings = DegradationSettings(
        fault_window_seconds=100.0,
        escalate_after=1,
        recover_after_seconds=500.0,
    )
    ladder = DegradationLadder(settings)
    ladder.record_fault(0.0, "deadline")
    ladder.record_fault(10.0, "deadline")
    assert ladder.level == "noop"
    assert ladder.observe(100.0) is None  # too soon
    assert ladder.observe(510.0) == "pruned"
    assert ladder.observe(511.0) is None  # needs another quiet period
    assert ladder.observe(1100.0) == "normal"
    assert ladder.observe(5000.0) is None  # already at the bottom


def test_degradation_settings_validation():
    with pytest.raises(ValueError):
        DegradationSettings(escalate_after=0)
    with pytest.raises(ValueError):
        DegradationSettings(fault_window_seconds=0.0)
    with pytest.raises(ValueError):
        DegradationSettings(deadline_fraction=1.5)


# ---------------------------------------------------------------------------
# determinism: a fixed fault seed reproduces the exact event trace
# ---------------------------------------------------------------------------


def test_fixed_fault_seed_reproduces_identical_event_trace(small_testbed):
    from repro.testbed import build_mistral

    config = FaultConfig(
        seed=5,
        default_fail_probability=0.4,
        default_stall_probability=0.2,
    )

    def fault_events() -> list[tuple[str, dict]]:
        sink = RingBufferSink()
        controller, initial = build_mistral(small_testbed)
        runtime.enable(sink=sink)
        try:
            small_testbed.run(
                controller, initial, "d", horizon=3600.0, faults=config
            )
        finally:
            runtime.disable()
        return [
            (event["name"], event["attrs"])
            for event in sink.events()
            if event["kind"] == "event"
            and event["name"].startswith(
                ("fault.", "recovery.", "resilience.")
            )
        ]

    first = fault_events()
    second = fault_events()
    assert first, "the fault config injected nothing"
    assert first == second
