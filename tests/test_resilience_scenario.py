"""Acceptance scenario: host crash + failed migrations during an escape.

Drives the testbed with a scripted controller that issues migration
plans on a synthetic band escape (the real hierarchy migrates rarely
and unpredictably, so the scenario scripts the plans).  The fault
schedule fails the first migration twice — exercising retry with
backoff — and crashes a host while a later migration is copying toward
it.  The run must complete without exceptions, end in a consistent
full configuration, and the telemetry trace must roll up the fault /
retry / rollback counts (DESIGN.md §10 acceptance scenario).
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.core.actions import MigrateVm
from repro.core.controller import Decision
from repro.faults import FaultConfig, HostCrash, ScriptedActionFault
from repro.telemetry import runtime
from repro.workload.monitor import BandEscape

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def telemetry_off():
    runtime.disable()
    runtime.registry.reset()
    yield
    runtime.disable()
    runtime.registry.reset()


class ScriptedController:
    """Issues pre-planned adaptation actions at fixed sample times."""

    name = "scripted"

    def __init__(self, plans: dict[float, list]) -> None:
        self.plans = dict(plans)
        self.decisions: list[Decision] = []
        self.utility = 0.0

    def record_interval_utility(self, value: float) -> None:
        self.utility += value

    def on_sample(self, now, workloads, configuration, busy):
        actions = self.plans.get(now)
        if actions is None or busy:
            return None
        del self.plans[now]
        escape = BandEscape(
            time=now,
            escaped_apps=tuple(sorted(workloads)),
            measured_interval=0.0,
            estimated_next_interval=600.0,
            workloads=dict(workloads),
        )
        decision = Decision(
            time=now,
            controller=self.name,
            actions=tuple(actions),
            control_window=600.0,
            decision_seconds=5.0,
            search_watts=6.0,
            outcome=None,
            escape=escape,
        )
        self.decisions.append(decision)
        return decision


def scenario_faults() -> FaultConfig:
    return FaultConfig(
        seed=0,
        scripted=(
            ScriptedActionFault(kind="migrate", occurrence=0),
            ScriptedActionFault(kind="migrate", occurrence=1),
        ),
        host_crashes=(HostCrash(time=500.0, host_id="host-3"),),
    )


def test_scenario_completes_consistently(small_testbed, tmp_path):
    initial = small_testbed.default_configuration()
    # t=120: consolidate RUBiS-1's web tier onto its database host
    # (fails twice, then lands; host-1 ends at exactly the 0.8 cap
    # limit).  t=480: migrate toward host-3, which crashes at t=500
    # with the copy still in flight.
    controller = ScriptedController(
        {
            120.0: [MigrateVm("RUBiS-1-web-0", "host-1")],
            480.0: [MigrateVm("RUBiS-2-web-0", "host-3")],
        }
    )

    trace_path = tmp_path / "scenario.jsonl"
    runtime.enable(jsonl_path=str(trace_path))
    try:
        metrics = small_testbed.run(
            controller,
            initial,
            "scenario",
            horizon=1800.0,
            faults=scenario_faults(),
        )
    finally:
        runtime.disable()

    # Both plans were issued; all scripted faults fired.
    assert len(controller.decisions) == 2
    stats = metrics.fault_stats
    assert stats.action_failures == 2
    assert stats.host_crashes == 1

    # The retried migration landed despite two failures.
    descriptions = [record.description for record in metrics.actions]
    assert (
        descriptions.count("migrate(RUBiS-1-web-0 -> host-1) [failed]") == 2
    )
    assert "migrate(RUBiS-1-web-0 -> host-1)" in descriptions
    # The crash aborted the in-flight migration toward host-3.
    assert any("[aborted]" in line for line in descriptions)

    # Consistent full configuration: the landed migrations applied, the
    # stranded VM is gone, nothing violates the constraints.
    final = metrics.final_configuration
    assert final.violations(small_testbed.catalog, small_testbed.limits) == []
    assert final.placement_of("RUBiS-1-web-0").host_id == "host-1"
    assert final.placement_of("RUBiS-1-app-0").host_id == "host-0"
    # host-3 died: its database VM is stranded, the host unpowered, and
    # the crash-aborted migration never moved RUBiS-2-web-0.
    assert final.placement_of("RUBiS-2-db-0") is None
    assert "host-3" not in final.powered_hosts
    assert final.placement_of("RUBiS-2-web-0").host_id == "host-2"

    # Utility accrued every interval.
    assert len(metrics.utility_increments) == 16
    assert metrics.power_watts.values  # the run produced measurements

    # The telemetry rollup surfaces the fault/retry/rollback counts.
    report_module = load_script("telemetry_report")
    events = report_module.read_trace(trace_path)
    report = report_module.build_report(events)
    resilience = report["resilience"]
    assert resilience["faults"]["actions"].get("failed") == 2
    assert resilience["faults"]["host_crashes"] == 1
    assert resilience["recovery"]["retries"] == 2
    assert resilience["recovery"]["plans_aborted"] == 1
    # The rendered report includes the resilience section.
    rendered = report_module.render(report)
    assert "== resilience ==" in rendered
    assert "host crashes: 1" in rendered


def resilience_faults() -> FaultConfig:
    """The Resilience benchmark's schedule
    (benchmarks/test_resilience_faults.py): two scripted migration
    failures, a 20% failure rate per attempt, one host crash."""
    return FaultConfig(
        seed=0,
        fail_probability=0.2,
        scripted=(
            ScriptedActionFault(kind="migrate", occurrence=0),
            ScriptedActionFault(kind="migrate", occurrence=1),
        ),
        host_crashes=(HostCrash(time=5400.0, host_id="host-3"),),
    )


def test_resilience_faults_reach_the_pruned_rung(monkeypatch):
    """The Resilience scenario's faults push the hierarchy onto the
    ladder's pruned rung, and every search there is the self-aware A*
    bounded by the rung's expansion budget."""
    # The ladder pins the pruned rung to the A*; the annealing CI leg
    # must not swap the normal rung's backend either.
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY", raising=False)
    from repro.core.search import AdaptationSearch
    from repro.faults.degradation import PRUNED_MAX_EXPANSIONS
    from repro.testbed import build_mistral, make_testbed

    searches = []
    search = AdaptationSearch.search

    def recorded(self, *args, settings_override=None, **kwargs):
        outcome = search(
            self, *args, settings_override=settings_override, **kwargs
        )
        searches.append((settings_override, outcome))
        return outcome

    monkeypatch.setattr(AdaptationSearch, "search", recorded)
    testbed = make_testbed(2, seed=0)
    controller, initial = build_mistral(testbed)
    testbed.run(
        controller,
        initial,
        "mistral",
        horizon=10800.0,
        faults=resilience_faults(),
    )

    # Only the pruned rung overrides a search's settings.
    pruned = [
        (settings, outcome)
        for settings, outcome in searches
        if settings is not None
    ]
    assert pruned, "no search ran on the pruned rung"
    for settings, outcome in pruned:
        assert settings.max_expansions == PRUNED_MAX_EXPANSIONS
        assert settings.self_aware
        assert outcome.strategy == "astar"
        assert outcome.expansions <= PRUNED_MAX_EXPANSIONS
