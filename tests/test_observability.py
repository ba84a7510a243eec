"""Observability layer: decision provenance, phase-attributed
profiling, and the trace analysis toolkit.

The contracts under test:

- every ``controller.decision`` span is accompanied by a
  ``decision.provenance`` event whose Eq. 3 terms sum to the reported
  utility, with rejected-candidate evidence in multi-candidate runs;
- phase profiling attributes search time to enumerate/score/merge/
  frontier and costs nothing when telemetry is off;
- the toolkit scripts (``trace_query``, ``trace_diff``,
  ``metrics_export``, ``check_perf``) read real traces and gate real
  regressions.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.telemetry import phases as phases_mod
from repro.telemetry import runtime
from repro.telemetry.metrics import Histogram
from repro.telemetry.phases import PhaseProfile, phase
from repro.telemetry.provenance import (
    PROVENANCE_SCHEMA,
    ProvenanceCollector,
    RejectedCandidate,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_script(name: str):
    path = REPO_ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# phase profiling
# ---------------------------------------------------------------------------


def test_phase_context_is_noop_without_profile():
    assert phases_mod.get_profile() is None
    with phase("score"):  # must not raise or install anything
        pass
    assert phases_mod.get_profile() is None


def test_phase_profile_accumulates_and_snapshots():
    profile = PhaseProfile()
    assert not profile  # empty profile is falsy (event suppressed)
    phases_mod.set_profile(profile)
    try:
        with phase("score"):
            pass
        with phase("score"):
            pass
        profile.add("solve", 0.5, 0.25)
    finally:
        phases_mod.set_profile(None)
    snapshot = profile.snapshot()
    assert profile
    assert snapshot["score"]["calls"] == 2
    assert snapshot["score"]["wall"] >= 0.0
    assert snapshot["solve"] == {"wall": 0.5, "cpu": 0.25, "calls": 1}
    # Canonical phases come first, in pipeline order.
    named = [name for name in snapshot if name in phases_mod.PHASES]
    assert named == [
        name for name in phases_mod.PHASES if name in snapshot
    ]


def test_histogram_percentiles_interpolate():
    histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.6, 3.0):
        histogram.observe(value)
    summary = histogram.percentiles()
    assert set(summary) == {"p50", "p90", "p99"}
    assert 1.0 <= summary["p50"] <= 2.0
    assert summary["p90"] <= 4.0
    assert summary["p99"] <= 4.0
    # Overflow ranks clamp to the last bound.
    histogram.observe(100.0)
    assert histogram.percentile(1.0) == 4.0


# ---------------------------------------------------------------------------
# decision provenance (acceptance: terms sum to the reported utility)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def provenance_setup():
    from repro.core.search import AdaptationSearch, SearchSettings
    from repro.testbed.scenarios import (
        _global_perf_pwr,
        initial_configuration,
        make_testbed,
    )

    testbed = make_testbed(2, seed=0)
    search = AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=SearchSettings(self_aware=True, incremental=True),
    )
    names = [app.name for app in testbed.applications]
    workloads = {
        name: 45.0 + 5.0 * index for index, name in enumerate(names)
    }
    return search, initial_configuration(testbed), workloads


def test_provenance_terms_sum_to_reported_utility(provenance_setup):
    """The Eq. 3 decomposition reproduces the search's own utility:
    steady + transient == total == predicted_utility (float tolerance),
    and a forced multi-candidate search records rejected rivals."""
    search, start, workloads = provenance_setup
    search.perf_pwr.optimize(workloads)
    runtime.enable()
    try:
        outcome = search.search(start, workloads, 300.0)
    finally:
        runtime.disable()
    record = outcome.provenance
    assert record is not None
    assert outcome.actions, "scenario must force a real adaptation"
    utility = record.utility
    scale = max(abs(utility["total"]), 1.0)
    assert (
        abs(utility["steady"] + utility["transient"] - utility["total"])
        <= 1e-6 * scale
    )
    assert (
        abs(utility["total"] - outcome.predicted_utility) <= 1e-6 * scale
    )
    assert record.chosen_actions == tuple(
        type(action).__name__ for action in outcome.actions
    )
    # Per-action accrual covers the chain and sums to the transient term.
    assert len(record.per_action) == len(outcome.actions)
    accrued = sum(entry["utility"] for entry in record.per_action)
    assert accrued == pytest.approx(utility["transient"], abs=1e-9)
    # The high-load scenario explores many children: rejection evidence
    # must survive into the record.
    assert record.rejected, "multi-candidate search recorded no rivals"
    reasons = {candidate.reason for candidate in record.rejected}
    assert reasons <= {
        "dominated",
        "pruned",
        "deadline-aborted",
        "fault-debited",
    }
    assert record.search["expansions"] == outcome.expansions


def test_every_decision_span_carries_provenance(tmp_path):
    """End to end through a testbed run: every controller.decision
    span has a decision.provenance event emitted inside it (parent ==
    span seq) whose total matches the span's predicted utility, and
    the same records surface via RunMetrics.decision_provenance."""
    from repro.testbed.scenarios import build_mistral, make_testbed

    testbed = make_testbed(2, seed=0)
    controller, initial = build_mistral(testbed)
    path = tmp_path / "trace.jsonl"
    runtime.enable(jsonl_path=str(path))
    try:
        metrics = testbed.run(
            controller, initial, "provenance-smoke", horizon=30 * 60
        )
    finally:
        runtime.disable()
    records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    spans = [
        r
        for r in records
        if r["kind"] == "span" and r["name"] == "controller.decision"
    ]
    events = {
        r["parent"]: r
        for r in records
        if r["kind"] == "event" and r["name"] == "decision.provenance"
    }
    assert spans, "run produced no controller decisions"
    for span in spans:
        event = events.get(span["seq"])
        assert event is not None, (
            f"decision span seq={span['seq']} has no provenance event"
        )
        attrs = event["attrs"]
        assert attrs["schema"] == PROVENANCE_SCHEMA
        utility = attrs["utility"]
        scale = max(abs(utility["total"]), 1.0)
        assert (
            abs(
                utility["steady"]
                + utility["transient"]
                - utility["total"]
            )
            <= 1e-6 * scale
        )
        assert (
            abs(
                utility["total"]
                - span["attrs"]["predicted_utility"]
            )
            <= 1e-6 * scale
        )
    # The decisions the testbed acted on surface via RunMetrics (inner
    # hierarchy decisions stay trace-only, so this is a subset).
    assert metrics.decision_provenance
    assert len(metrics.decision_provenance) <= len(spans)
    for row in metrics.decision_provenance:
        assert row["schema"] == PROVENANCE_SCHEMA
        assert {"t", "controller", "utility", "rejected", "search"} <= set(
            row
        )


def test_provenance_off_keeps_decisions_bit_identical(provenance_setup):
    """With telemetry (or just provenance) off, no record is attached
    and the decision itself is unchanged."""
    search, start, workloads = provenance_setup
    search.perf_pwr.optimize(workloads)
    runtime.enable()
    try:
        enabled = search.search(start, workloads, 300.0)
    finally:
        runtime.disable()
    disabled = search.search(start, workloads, 300.0)
    assert disabled.provenance is None
    assert disabled.actions == enabled.actions
    assert disabled.predicted_utility == enabled.predicted_utility
    assert disabled.expansions == enabled.expansions
    # Provenance can also be switched off on its own.
    runtime.enable(collect_provenance=False)
    try:
        opted_out = search.search(start, workloads, 300.0)
    finally:
        runtime.disable()
    assert opted_out.provenance is None
    assert opted_out.actions == enabled.actions


def test_collector_compacts_ranks_and_relabels():
    class _A:  # stand-in action types
        pass

    class _B:
        pass

    collector = ProvenanceCollector(top_k=3)
    for index in range(80):  # overflow _NOTE_LIMIT to force compaction
        collector.note_candidate(float(index), (_A(),))
    collector.note_candidate(1000.0, (_A(), _B()))  # the future winner
    collector.note_pruned(5, 0.7)
    collector.note_pruned(3, 0.2)
    record = collector.build(
        utility={"total": 1000.0},
        chosen_actions=("_A", "_B"),
        predicted_utility=1000.0,
        search={},
    )
    # The winner survived compaction and is not listed as its own rival.
    assert all(
        candidate.actions != ("_A", "_B") for candidate in record.rejected
    )
    dominated = [c for c in record.rejected if c.reason == "dominated"]
    assert len(dominated) == 3  # top_k
    scores = [c.score for c in dominated]
    assert scores == sorted(scores, reverse=True)
    (pruned,) = [c for c in record.rejected if c.reason == "pruned"]
    assert pruned.count == 8 and pruned.score == pytest.approx(0.2)
    # Fault debt relabels the pruning evidence.
    record.apply_fault_debit(12.5)
    assert record.fault_debit == 12.5
    assert not any(c.reason == "pruned" for c in record.rejected)
    assert any(c.reason == "fault-debited" for c in record.rejected)
    payload = record.to_attrs()
    assert payload["schema"] == PROVENANCE_SCHEMA
    json.dumps(payload)  # event payload must be JSON-encodable


# ---------------------------------------------------------------------------
# trace toolkit scripts
# ---------------------------------------------------------------------------


def _sample_decision_trace(tmp_path) -> Path:
    """A minimal but realistic trace: one controller.decision span with
    its decision.provenance event, plus a profile.phases event."""
    path = tmp_path / "sample.jsonl"
    collector = ProvenanceCollector()
    collector.note_candidate(10.0, ())
    collector.note_pruned(4, 0.5)
    record = collector.build(
        utility={
            "steady": 9.0,
            "transient": 3.0,
            "total": 12.0,
            "predicted_utility": 12.0,
        },
        chosen_actions=("AddVm",),
        predicted_utility=12.0,
        search={"expansions": 7, "children_pruned": 4},
    )
    runtime.enable(jsonl_path=str(path))
    try:
        with runtime.span(
            "controller.decision",
            controller="L1",
            t_sim=120.0,
            actions=["AddVm"],
            predicted_utility=12.0,
            expansions=7,
            decision_seconds=0.5,
        ):
            runtime.event("decision.provenance", **record.to_attrs())
        runtime.event(
            "profile.phases",
            phases={
                "enumerate": {"wall": 0.01, "cpu": 0.01, "calls": 2},
                "score": {"wall": 0.02, "cpu": 0.02, "calls": 2},
            },
            wall_seconds=0.05,
            expansions=7,
        )
    finally:
        runtime.disable()
    return path


def test_trace_query_prints_decision_breakdown(tmp_path, capsys):
    trace_query = _load_script("trace_query")
    path = _sample_decision_trace(tmp_path)
    assert trace_query.main([str(path), "--decision", "1"]) == 0
    out = capsys.readouterr().out
    assert "decision #1" in out
    assert "controller=L1" in out
    assert "AddVm" in out
    assert "steady" in out and "transient" in out
    assert "dominated" in out and "pruned x4" in out
    # Filter mode and hotspots keep working on the same trace.
    assert trace_query.main([str(path), "--name", "controller.*"]) == 0
    assert "controller.decision" in capsys.readouterr().out
    assert trace_query.main([str(path), "--decisions"]) == 0


def test_trace_query_unknown_decision_fails(tmp_path):
    trace_query = _load_script("trace_query")
    path = _sample_decision_trace(tmp_path)
    assert trace_query.main([str(path), "--decision", "99"]) == 1


def test_trace_diff_flags_divergence(tmp_path, capsys):
    trace_diff = _load_script("trace_diff")
    base = _sample_decision_trace(tmp_path)
    twin_dir = tmp_path / "twin"
    twin_dir.mkdir()
    twin = _sample_decision_trace(twin_dir)

    assert trace_diff.main([str(base), str(twin), "--strict"]) == 0
    assert "identical" in capsys.readouterr().out

    # Doctor the twin's decision: same layout, different action chain.
    doctored = []
    for line in twin.read_text().splitlines():
        record = json.loads(line)
        if record.get("name") == "controller.decision":
            record["attrs"]["actions"] = ["RemoveVm"]
        doctored.append(json.dumps(record))
    twin.write_text("\n".join(doctored) + "\n")
    assert trace_diff.main([str(base), str(twin), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "DIVERGE at decision #1" in out
    assert trace_diff.main([str(base), str(twin)]) == 0  # non-strict


def test_metrics_export_renders_prometheus_text(tmp_path):
    export = _load_script("metrics_export")
    path = tmp_path / "trace.jsonl"
    runtime.enable(jsonl_path=str(path))
    try:
        runtime.registry.counter("search.expansions").inc(5)
        histogram = runtime.registry.histogram(
            "controller.decision_seconds", bounds=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        runtime.emit_metrics_snapshot()
    finally:
        runtime.disable()
    out = tmp_path / "metrics.prom"
    assert export.main([str(path), "--output", str(out)]) == 0
    text = out.read_text()
    assert "# TYPE mistral_search_expansions counter" in text
    assert "mistral_search_expansions 5" in text
    # Buckets are cumulative and capped by the +Inf bucket.
    assert 'le="0.1"} 1' in text
    assert 'le="1"} 2' in text
    assert 'le="+Inf"} 3' in text
    assert "mistral_controller_decision_seconds_count 3" in text
    assert 'quantile="0.5"' in text


def test_metrics_export_requires_snapshot(tmp_path):
    export = _load_script("metrics_export")
    path = tmp_path / "empty.jsonl"
    runtime.enable(jsonl_path=str(path))
    runtime.disable()
    assert export.main([str(path)]) == 1


def test_telemetry_report_counts_malformed_lines(tmp_path, capsys):
    report = _load_script("telemetry_report")
    path = tmp_path / "torn.jsonl"
    runtime.enable(jsonl_path=str(path))
    try:
        runtime.event("tick", n=1)
        runtime.emit_metrics_snapshot()
    finally:
        runtime.disable()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "kind": "event", "name": "tr\n')  # torn
        handle.write("[1, 2, 3]\n")  # valid JSON, not a record
    events = report.read_trace(path)
    assert events.malformed_lines == 2
    rollup = report.build_report(events)
    assert rollup["malformed_lines"] == 2
    assert report.main([str(path)]) == 0
    assert "2 malformed line(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# perf-regression gate
# ---------------------------------------------------------------------------


def _tolerances():
    import importlib.util as util

    path = REPO_ROOT / "benchmarks" / "perf" / "baseline_data.py"
    spec = util.spec_from_file_location("baseline_data", path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PERF_TOLERANCES


def _measurement_matching(tolerances) -> dict:
    """A payload that reproduces the recorded numbers exactly."""
    return {
        "meta": {
            "sizes": tolerances["sizes"],
            "runs": tolerances["runs"],
        },
        "search": {
            scenario: dict(row)
            for scenario, row in tolerances["search"].items()
        },
        "phases": {
            name: dict(row) for name, row in tolerances["phases"].items()
        },
        "ideal": {
            scenario: dict(row)
            for scenario, row in tolerances["ideal"].items()
        },
    }


def test_check_perf_passes_on_recorded_baseline():
    check_perf = _load_script("check_perf")
    tolerances = _tolerances()
    checks = check_perf.compare(
        _measurement_matching(tolerances), tolerances
    )
    assert checks
    assert all(row["ok"] for row in checks)
    assert check_perf.render(checks)
    # The ideal rows: four exact counters and a CPU gate per scenario.
    names = (
        "plans_scored",
        "tier_solves",
        "steps",
        "evaluations",
        "mean_cpu_seconds",
    )
    assert [
        row["check"] for row in checks if row["check"].startswith("ideal ")
    ] == [
        f"ideal {scenario}: {name}"
        for scenario in sorted(tolerances["ideal"])
        for name in names
    ]
    assert sorted(tolerances["ideal"]) == ["apps-2", "apps-4"]


def test_check_perf_fails_on_doubled_phase_times(tmp_path):
    """The acceptance scenario: a 2x phase-time regression must trip
    the gate (cpu_ratio is recorded below 2.0)."""
    check_perf = _load_script("check_perf")
    tolerances = _tolerances()
    assert tolerances["cpu_ratio"] < 2.0
    doctored = _measurement_matching(tolerances)
    for row in doctored["phases"].values():
        row["cpu"] *= 2.0
        row["wall"] *= 2.0
    checks = check_perf.compare(doctored, tolerances)
    failed = [row for row in checks if row["gated"] and not row["ok"]]
    assert failed, "2x phase regression did not trip the gate"
    assert all("cpu_seconds" in row["check"] for row in failed)
    # Gated phases above the noise floor all tripped.
    floor = tolerances["min_gate_cpu_seconds"]
    gated_phases = [
        name
        for name, row in tolerances["phases"].items()
        if row["cpu"] >= floor
    ]
    assert len(failed) == len(gated_phases)
    # And through the CLI: non-zero exit on the doctored payload.
    payload = tmp_path / "doctored.json"
    payload.write_text(json.dumps(doctored))
    assert check_perf.main(["--input", str(payload)]) == 1


def test_check_perf_fails_on_counter_drift():
    """Expansion-count drift is a behaviour change, not noise: exact
    match required no matter how generous the timing ratio."""
    check_perf = _load_script("check_perf")
    tolerances = _tolerances()
    doctored = _measurement_matching(tolerances)
    scenario = next(iter(doctored["search"]))
    doctored["search"][scenario]["total_expansions"] += 1
    checks = check_perf.compare(doctored, tolerances, cpu_ratio=1000.0)
    failed = [row for row in checks if row["gated"] and not row["ok"]]
    assert [row["check"] for row in failed] == [
        f"{scenario}: total_expansions"
    ]


@pytest.mark.parametrize(
    "counter", ["plans_scored", "tier_solves", "steps", "evaluations"]
)
def test_check_perf_fails_on_ideal_counter_drift(counter):
    """The ideal scoring more plans (e.g. a full estimate composed per
    move), re-solving more tiers (e.g. a memo that misses), or taking
    other steps, fails its exact counter check."""
    check_perf = _load_script("check_perf")
    tolerances = _tolerances()
    doctored = _measurement_matching(tolerances)
    doctored["ideal"]["apps-4"][counter] += 1
    checks = check_perf.compare(doctored, tolerances, cpu_ratio=1000.0)
    failed = [row["check"] for row in checks if row["gated"] and not row["ok"]]
    assert failed == [f"ideal apps-4: {counter}"]


def test_check_perf_fails_on_doubled_ideal_cpu():
    check_perf = _load_script("check_perf")
    tolerances = _tolerances()
    doctored = _measurement_matching(tolerances)
    for row in doctored["ideal"].values():
        row["mean_cpu_seconds"] *= 2.0
    checks = check_perf.compare(doctored, tolerances)
    failed = [row["check"] for row in checks if row["gated"] and not row["ok"]]
    assert failed == [
        f"ideal {scenario}: mean_cpu_seconds"
        for scenario in sorted(tolerances["ideal"])
    ]


def test_check_perf_flags_missing_scenarios_and_phases():
    check_perf = _load_script("check_perf")
    tolerances = _tolerances()
    doctored = _measurement_matching(tolerances)
    doctored["search"].pop(next(iter(doctored["search"])))
    doctored["phases"].pop(next(iter(doctored["phases"])))
    doctored["ideal"].pop("apps-2")
    checks = check_perf.compare(doctored, tolerances)
    failed = {row["check"] for row in checks if not row["ok"]}
    assert any("present" in name for name in failed)
    assert "ideal apps-2: present" in failed
