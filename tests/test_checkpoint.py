"""Checkpointing, watchdog deadlines, and hierarchy failover.

The headline contract: a run that checkpoints, dies, restores into a
freshly built controller, and continues produces a decision trace
bit-identical to an uninterrupted fixed-seed run (on the noise-free
replay loop — see ``repro.checkpoint.replay``).
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    SNAPSHOT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointStore,
    capture,
    drive_windows,
    reconcile,
    restore,
    snapshot_configuration,
)
from repro.core.config import Configuration, Placement
from repro.core.search import AdaptationSearch, SearchSettings
from repro.faults import ControllerCrash, FaultConfig

HOSTS = ("host-0", "host-1", "host-2", "host-3")

#: SearchOutcome fields under the bit-identity contract (everything but
#: the measured ``wall_seconds`` — same list as tests/test_array_core.py).
OUTCOME_FIELDS = (
    "actions",
    "final_configuration",
    "predicted_utility",
    "expansions",
    "decision_seconds",
    "pruning_activated",
    "optimal",
)


def _build(testbed, **kwargs):
    from repro.testbed import build_mistral

    return build_mistral(testbed, **kwargs)


# ---------------------------------------------------------------------------
# store: atomicity, checksum, version gate
# ---------------------------------------------------------------------------


def test_store_round_trip(tmp_path):
    store = CheckpointStore(tmp_path / "snap.json")
    assert not store.exists()
    snapshot = {"schema": 1, "kind": "x", "t_sim": 42.0, "nested": [1, 2]}
    store.save(snapshot)
    assert store.exists()
    assert store.load() == snapshot


def test_store_missing_file_raises(tmp_path):
    store = CheckpointStore(tmp_path / "absent.json")
    with pytest.raises(CheckpointError, match="cannot read"):
        store.load()


def test_store_rejects_corrupt_json(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        CheckpointStore(path).load()


def test_store_rejects_truncated_file(tmp_path):
    path = tmp_path / "snap.json"
    store = CheckpointStore(path)
    store.save({"schema": 1, "payload": list(range(100))})
    raw = path.read_text(encoding="utf-8")
    path.write_text(raw[: len(raw) // 2], encoding="utf-8")
    with pytest.raises(CheckpointError):
        store.load()


def test_store_rejects_checksum_mismatch(tmp_path):
    path = tmp_path / "snap.json"
    store = CheckpointStore(path)
    store.save({"schema": 1, "value": 1})
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["snapshot"]["value"] = 2  # tamper without refreshing checksum
    path.write_text(json.dumps(envelope), encoding="utf-8")
    with pytest.raises(CheckpointError, match="checksum"):
        store.load()


def test_store_rejects_unknown_envelope_version(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text(
        json.dumps({"v": 99, "checksum": "0" * 64, "snapshot": {}}),
        encoding="utf-8",
    )
    with pytest.raises(CheckpointError, match="unknown schema version"):
        CheckpointStore(path).load()


def test_failed_save_keeps_previous_snapshot_and_no_tmp_files(tmp_path):
    path = tmp_path / "snap.json"
    store = CheckpointStore(path)
    store.save({"schema": 1, "good": True})
    with pytest.raises(TypeError):
        store.save({"schema": 1, "bad": object()})  # not JSON-encodable
    assert store.load() == {"schema": 1, "good": True}
    leftovers = [name for name in os.listdir(tmp_path) if ".tmp" in name]
    assert leftovers == []


def test_save_overwrites_atomically(tmp_path):
    store = CheckpointStore(tmp_path / "snap.json")
    store.save({"schema": 1, "generation": 1})
    store.save({"schema": 1, "generation": 2})
    assert store.load()["generation"] == 2


# ---------------------------------------------------------------------------
# store: generation ring, quarantine, rollback
# ---------------------------------------------------------------------------


def test_store_keep_validated(tmp_path):
    with pytest.raises(ValueError, match="keep"):
        CheckpointStore(tmp_path / "snap.json", keep=0)
    assert CheckpointStore(tmp_path / "snap.json", keep=2).keep == 2


def test_ring_retains_bounded_generations(tmp_path):
    path = tmp_path / "snap.json"
    store = CheckpointStore(path, keep=3)
    for generation in range(1, 6):
        store.save({"schema": 1, "generation": generation})
    rings = store.generations()
    assert [os.path.basename(p) for p in rings] == [
        "snap.json.g000003",
        "snap.json.g000004",
        "snap.json.g000005",
    ]
    # The head is a hard link to the newest generation — same bytes.
    assert store.load()["generation"] == 5
    assert os.path.samefile(path, rings[-1])
    # Pruned generations are really gone.
    assert not os.path.exists(str(path) + ".g000001")
    assert not os.path.exists(str(path) + ".g000002")


def test_failed_save_never_touches_previous_generation(tmp_path):
    """Verify-before-commit: the previous good generation survives a
    failing save byte for byte (it is never deleted or replaced until
    its successor is durably on disk and proven readable)."""
    path = tmp_path / "snap.json"
    store = CheckpointStore(path, keep=2)
    store.save({"schema": 1, "good": True})
    (generation_path,) = store.generations()
    before = open(generation_path, encoding="utf-8").read()
    with pytest.raises(TypeError):
        store.save({"schema": 1, "bad": object()})
    assert store.generations() == [generation_path]
    assert open(generation_path, encoding="utf-8").read() == before
    assert store.load() == {"schema": 1, "good": True}


def test_corruption_hook_rot_is_quarantined_and_rolled_back(tmp_path):
    """Post-write rot on the newest snapshot: ``load`` quarantines the
    corrupt files (head and its hard-linked generation), rolls back to
    the previous generation, and repairs the head link."""
    path = tmp_path / "snap.json"
    store = CheckpointStore(path, keep=3)
    store.save({"schema": 1, "generation": 1})
    store.corruption_hook = lambda text: "X" + text[1:]
    store.save({"schema": 1, "generation": 2})

    assert store.load() == {"schema": 1, "generation": 1}
    quarantined = [os.path.basename(p) for p in store.quarantined()]
    assert "snap.json.g000002.quarantine" in quarantined
    # The head link was repaired to the recovered generation, so the
    # next load is a straight read — no rollback pass.
    assert os.path.samefile(path, str(path) + ".g000001")
    assert store.load() == {"schema": 1, "generation": 1}

    # Quarantined numbers are never reused: the lineage continues past
    # the rotted generation, and the evidence stays on disk.
    store.corruption_hook = None
    store.save({"schema": 1, "generation": 3})
    assert os.path.basename(store.generations()[-1]) == "snap.json.g000003"
    assert store.load() == {"schema": 1, "generation": 3}
    assert "snap.json.g000002.quarantine" in [
        os.path.basename(p) for p in store.quarantined()
    ]


def test_load_recovers_when_head_is_deleted(tmp_path):
    path = tmp_path / "snap.json"
    store = CheckpointStore(path)
    store.save({"schema": 1, "value": 7})
    os.unlink(path)
    assert store.load() == {"schema": 1, "value": 7}
    # Recovery re-links the head for the next reader.
    assert os.path.exists(path)


def test_load_refuses_when_every_generation_is_rotten(tmp_path):
    path = tmp_path / "snap.json"
    store = CheckpointStore(path, keep=2)
    store.corruption_hook = lambda text: "X" + text[1:]
    store.save({"schema": 1, "generation": 1})
    store.save({"schema": 1, "generation": 2})
    with pytest.raises(CheckpointError, match="not valid JSON"):
        store.load()
    assert store.generations() == []
    assert len(store.quarantined()) >= 2


def test_ring_telemetry_counts_saves_quarantines_rollbacks(tmp_path):
    from repro import telemetry

    path = tmp_path / "snap.json"
    store = CheckpointStore(path, keep=3)
    telemetry.enable()
    try:
        store.save({"schema": 1, "generation": 1})
        store.corruption_hook = lambda text: "X" + text[1:]
        store.save({"schema": 1, "generation": 2})
        assert store.load() == {"schema": 1, "generation": 1}
        counters = telemetry.runtime.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
    assert counters.get("checkpoint.saves") == 2
    assert counters.get("checkpoint.quarantines", 0) >= 1
    assert counters.get("checkpoint.rollbacks") == 1


# ---------------------------------------------------------------------------
# snapshot validation: all-or-nothing restore
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def driven_snapshot(small_testbed):
    """A hierarchy snapshot with real accumulated state (4 windows)."""
    controller, initial = _build(small_testbed)
    _, configuration = drive_windows(controller, initial, small_testbed, 0, 4)
    interval = small_testbed.settings.monitoring_interval
    return capture(
        controller, configuration=configuration, t_sim=4 * interval
    )


def test_snapshot_is_json_round_trippable(driven_snapshot):
    encoded = json.dumps(driven_snapshot)
    assert json.loads(encoded) == driven_snapshot
    assert driven_snapshot["schema"] == SNAPSHOT_SCHEMA_VERSION
    assert driven_snapshot["kind"] == "hierarchy"


def test_restore_rejects_unknown_schema_without_partial_restore(
    small_testbed, driven_snapshot
):
    controller, _ = _build(small_testbed)
    pristine = capture(controller)
    bad = dict(driven_snapshot)
    bad["schema"] = 99
    with pytest.raises(CheckpointError, match="unknown snapshot schema"):
        restore(controller, bad)
    assert capture(controller) == pristine


def test_restore_rejects_kind_mismatch(small_testbed, driven_snapshot):
    single, _ = _build(small_testbed, hierarchical=False)
    with pytest.raises(CheckpointError, match="kind"):
        restore(single, driven_snapshot)


def test_restore_rejects_cost_table_mismatch_without_partial_restore(
    small_testbed, driven_snapshot
):
    controller, _ = _build(small_testbed)
    pristine = capture(controller)
    bad = dict(driven_snapshot)
    bad["cost_table_fingerprint"] = "deadbeef"
    with pytest.raises(CheckpointError, match="fingerprint"):
        restore(controller, bad)
    assert capture(controller) == pristine


def test_restore_rejects_hierarchy_shape_mismatch(
    small_testbed, driven_snapshot
):
    controller, _ = _build(small_testbed)
    pristine = capture(controller)
    bad = dict(driven_snapshot)
    bad["level1"] = bad["level1"][:-1]
    with pytest.raises(CheckpointError, match="1st-level"):
        restore(controller, bad)
    assert capture(controller) == pristine


def test_capture_restore_round_trip_after_real_windows(
    small_testbed, driven_snapshot
):
    controller, _ = _build(small_testbed)
    restore(controller, driven_snapshot)
    recaptured = capture(
        controller,
        configuration=snapshot_configuration(driven_snapshot),
        t_sim=driven_snapshot["t_sim"],
    )
    assert recaptured == driven_snapshot


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rates=st.lists(
        st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
        min_size=0,
        max_size=10,
    )
)
def test_snapshot_round_trip_property(small_testbed, rates):
    """Any observe-only sample sequence survives capture -> restore."""
    names = small_testbed.applications.names()
    interval = small_testbed.settings.monitoring_interval
    controller, configuration = _build(small_testbed, hierarchical=False)
    for index, rate in enumerate(rates):
        workloads = {name: rate + offset for offset, name in enumerate(names)}
        controller.record_interval_utility(rate)
        # busy=True: the controller observes (bands, ARMA filter,
        # utility window all advance) but never searches.
        controller.on_sample(index * interval, workloads, configuration, True)
    snapshot = capture(controller, configuration=configuration)

    fresh, _ = _build(small_testbed, hierarchical=False)
    restore(fresh, snapshot)
    assert capture(fresh, configuration=configuration) == snapshot


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------


def test_reconcile_clean_and_drifted():
    configuration = Configuration(
        {"vm-a": Placement("host-0", 0.5), "vm-b": Placement("host-1", 0.5)},
        {"host-0", "host-1"},
    )
    snapshot = {"configuration": None}
    assert reconcile(snapshot, configuration).clean

    snapshot = capture_configuration_stub(configuration)
    assert reconcile(snapshot, configuration).clean

    drifted = Configuration(
        {"vm-a": Placement("host-2", 0.5), "vm-c": Placement("host-1", 0.7)},
        {"host-1", "host-2"},
    )
    report = reconcile(snapshot, drifted)
    assert not report.clean
    assert report.vms_moved == ("vm-a",)
    assert report.vms_added == ("vm-c",)
    assert report.vms_removed == ("vm-b",)
    assert report.hosts_powered_on == ("host-2",)
    assert report.hosts_powered_off == ("host-0",)
    assert report.drift_count() == 5


def capture_configuration_stub(configuration) -> dict:
    return {
        "configuration": {
            "placements": {
                vm_id: [placement.host_id, placement.cpu_cap]
                for vm_id, placement in configuration.placement_items()
            },
            "powered": sorted(configuration.powered_hosts),
        }
    }


def test_reconcile_detects_cap_changes():
    before = Configuration({"vm-a": Placement("host-0", 0.5)}, {"host-0"})
    after = Configuration({"vm-a": Placement("host-0", 0.8)}, {"host-0"})
    report = reconcile(capture_configuration_stub(before), after)
    assert report.caps_changed == ("vm-a",)
    assert report.drift_count() == 1


# ---------------------------------------------------------------------------
# the headline: crash-restart determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("hierarchical", "windows", "crash_at"),
    [
        # The single controller's first non-null decision lands late
        # (window 15 on this scenario) — crash well before it so the
        # restored ARMA/band state must reproduce it exactly.
        (False, 16, 8),
        (True, 12, 3),
    ],
)
def test_crash_restart_decision_trace_is_bit_identical(
    small_testbed, tmp_path, hierarchical, windows, crash_at
):
    interval = small_testbed.settings.monitoring_interval

    controller, initial = _build(small_testbed, hierarchical=hierarchical)
    reference, _ = drive_windows(
        controller, initial, small_testbed, 0, windows
    )

    controller, initial = _build(small_testbed, hierarchical=hierarchical)
    head, configuration = drive_windows(
        controller, initial, small_testbed, 0, crash_at
    )
    store = CheckpointStore(tmp_path / "snap.json")
    store.save(
        capture(
            controller,
            configuration=configuration,
            t_sim=crash_at * interval,
        )
    )
    del controller  # the crash

    revived, _ = _build(small_testbed, hierarchical=hierarchical)
    snapshot = store.load()
    restore(revived, snapshot)
    resumed_configuration = snapshot_configuration(snapshot)
    assert reconcile(snapshot, resumed_configuration).clean
    tail, _ = drive_windows(
        revived, resumed_configuration, small_testbed, crash_at, windows
    )

    assert head + tail == reference
    assert reference, "the scenario must actually decide something"


# ---------------------------------------------------------------------------
# search watchdog
# ---------------------------------------------------------------------------


@pytest.fixture
def make_search(apps, catalog, limits, estimator, cost_manager, optimizer):
    def factory(search_settings=None):
        return AdaptationSearch(
            apps,
            catalog,
            limits,
            estimator,
            cost_manager,
            optimizer,
            HOSTS,
            settings=search_settings or SearchSettings(),
        )

    return factory


def saturated_config():
    return Configuration(
        {
            "RUBiS-1-web-0": Placement("host-0", 0.2),
            "RUBiS-1-app-0": Placement("host-0", 0.2),
            "RUBiS-1-db-0": Placement("host-1", 0.4),
            "RUBiS-2-web-0": Placement("host-0", 0.2),
            "RUBiS-2-app-0": Placement("host-0", 0.2),
            "RUBiS-2-db-0": Placement("host-1", 0.4),
        },
        {"host-0", "host-1"},
    )


def test_deadline_validation():
    with pytest.raises(ValueError, match="deadline_seconds"):
        SearchSettings(deadline_seconds=0.0)
    with pytest.raises(ValueError, match="deadline_seconds"):
        SearchSettings(deadline_seconds=-1.0)
    assert SearchSettings(deadline_seconds=None).deadline_seconds is None


def test_tiny_deadline_aborts_to_valid_plan(make_search, catalog, limits):
    search = make_search(SearchSettings(deadline_seconds=1e-6))
    workloads = {"RUBiS-1": 60.0, "RUBiS-2": 55.0}
    outcome = search.search(saturated_config(), workloads, 600.0)
    assert outcome.deadline_aborted
    assert not outcome.optimal
    # Aborting still returns a valid, executable plan (possibly null).
    assert outcome.final_configuration.is_candidate(catalog, limits)
    state = saturated_config()
    for action in outcome.actions:
        state = action.apply(state, catalog, limits)
    assert state == outcome.final_configuration
    # The overshoot is bounded by one expansion round; on this testbed
    # a round is far below a second, so seconds of slack is generous.
    assert outcome.wall_seconds <= 1e-6 + 5.0


def test_generous_deadline_is_bit_identical_to_no_deadline(make_search):
    workloads = {"RUBiS-1": 60.0, "RUBiS-2": 55.0}
    bounded = make_search(SearchSettings(deadline_seconds=3600.0)).search(
        saturated_config(), workloads, 600.0
    )
    unbounded = make_search(SearchSettings()).search(
        saturated_config(), workloads, 600.0
    )
    assert not bounded.deadline_aborted
    for field in OUTCOME_FIELDS:
        assert getattr(bounded, field) == getattr(unbounded, field), field


def test_controller_counts_watchdog_aborts(small_testbed):
    controller, _ = _build(
        small_testbed,
        hierarchical=False,
        search_settings=SearchSettings(deadline_seconds=1e-6),
    )
    # An unseen sample escapes the band, and the underprovisioned
    # configuration forces a real (non-early-return) search, which the
    # 1µs deadline aborts immediately.
    decision = controller.on_sample(
        0.0, {"RUBiS-1": 60.0, "RUBiS-2": 55.0}, saturated_config()
    )
    assert controller.stats.watchdog_aborts == 1
    assert controller.stats.decisions == 1
    if decision is not None:
        assert decision.outcome.deadline_aborted


# ---------------------------------------------------------------------------
# hierarchy failover (testbed integration)
# ---------------------------------------------------------------------------


def test_controller_crash_failover_run(small_testbed, tmp_path):
    controller, initial = _build(small_testbed)
    path = tmp_path / "snap.json"
    faults = FaultConfig(
        controller_crashes=(
            ControllerCrash(time=600.0, restart_delay=300.0),
        ),
    )
    metrics = small_testbed.run(
        controller,
        initial,
        "mistral",
        horizon=1800.0,
        checkpoint=path,
        faults=faults,
    )
    assert metrics.fault_stats.controller_crashes == 1
    assert controller._level2_down_until is None  # restarted in-run
    # The run keeps checkpointing after the failover; the final
    # snapshot must load and restore into a fresh hierarchy.
    snapshot = CheckpointStore(path).load()
    fresh, _ = _build(small_testbed)
    # A faulted run attaches the degradation ladder; the restore
    # target must be built the same way (restore refuses otherwise).
    fresh.enable_resilience()
    restore(fresh, snapshot)
    assert snapshot["t_sim"] > 600.0


def test_controller_crash_requires_failover_capable_controller(
    small_testbed,
):
    controller, initial = _build(small_testbed, hierarchical=False)
    faults = FaultConfig(
        controller_crashes=(ControllerCrash(time=600.0),),
    )
    with pytest.raises(ValueError, match="failover-capable"):
        small_testbed.run(
            controller, initial, "mistral", horizon=1800.0, faults=faults
        )


def test_crash_controller_rejects_unknown_victim(small_testbed):
    controller, _ = _build(small_testbed)
    with pytest.raises(ValueError, match="unknown crash target"):
        controller.crash_controller(
            0.0, ControllerCrash(time=0.0, controller="mistral-L1-0")
        )


def test_level1_keeps_planning_while_level2_is_down(small_testbed):
    """During the outage the 1st level still observes and may decide."""
    controller, initial = _build(small_testbed)
    interval = small_testbed.settings.monitoring_interval
    controller.crash_controller(
        0.0, ControllerCrash(time=0.0, restart_delay=10 * interval)
    )
    invocations_before = controller.level2.stats.invocations
    decisions = controller.on_sample(
        interval, {"RUBiS-1": 60.0, "RUBiS-2": 55.0}, initial
    )
    assert controller.level2.stats.invocations == invocations_before
    assert all(
        decision.controller != controller.level2.name
        for decision in decisions
    )


def test_checkpointing_does_not_perturb_the_run(small_testbed, tmp_path):
    """checkpoint= only persists state; decisions are bit-identical."""
    horizon = 1800.0
    controller, initial = _build(small_testbed)
    plain = small_testbed.run(
        controller, initial, "mistral", horizon=horizon
    )
    controller, initial = _build(small_testbed)
    checkpointed = small_testbed.run(
        controller,
        initial,
        "mistral",
        horizon=horizon,
        checkpoint=tmp_path / "snap.json",
    )
    assert (
        plain.utility_increments.values
        == checkpointed.utility_increments.values
    )
    assert plain.power_watts.values == checkpointed.power_watts.values
    assert [
        (record.start, record.end, record.description)
        for record in plain.actions
    ] == [
        (record.start, record.end, record.description)
        for record in checkpointed.actions
    ]


# ---------------------------------------------------------------------------
# teardown hardening
# ---------------------------------------------------------------------------


def test_interrupted_run_flushes_trace_and_leaves_snapshot(
    small_testbed, tmp_path
):
    from repro.telemetry import runtime as telemetry

    controller, initial = _build(small_testbed)
    path = tmp_path / "snap.json"
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
            small_testbed.run(
                controller,
                initial,
                "mistral",
                horizon=7200.0,
                checkpoint=path,
            )
        # Teardown ran despite the interrupt: the trace is flushed to
        # disk, and the snapshot on disk loads.
        flushed = trace_path.read_text(encoding="utf-8")
        assert "checkpoint.save" in flushed
    finally:
        telemetry.disable()
    snapshot = CheckpointStore(path).load()
    fresh, _ = _build(small_testbed)
    restore(fresh, snapshot)
