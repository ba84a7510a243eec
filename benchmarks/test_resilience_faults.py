"""Bench: resilience under injected faults (beyond the paper).

The paper assumes adaptation actions succeed.  This benchmark runs the
same Mistral hierarchy twice over the flash-crowd ramp — once clean,
once with scripted migration failures, a 20% per-attempt action failure
rate, and one host crash — and compares what the faults cost in Eq. 3
utility.  The faulted run must complete without exceptions and keep the
utility gap bounded; retries/rollback/re-planning details are asserted
by tests/test_resilience_scenario.py.
"""

from conftest import emit

from repro.experiments.report import format_table, paper_vs_measured
from repro.faults import FaultConfig, HostCrash, ScriptedActionFault
from repro.testbed import make_testbed, build_mistral, summarize_runs

#: First 3 h of the trace: covers the flash crowd (~16:52 = t~6720 s).
HORIZON = 10800.0
CRASH_TIME = 5400.0
CRASH_HOST = "host-3"


def fault_config() -> FaultConfig:
    """Scripted first-two-migration failures, dicey actions, one crash."""
    return FaultConfig(
        seed=0,
        fail_probability=0.2,
        scripted=(
            ScriptedActionFault(kind="migrate", occurrence=0),
            ScriptedActionFault(kind="migrate", occurrence=1),
        ),
        host_crashes=(HostCrash(time=CRASH_TIME, host_id=CRASH_HOST),),
    )


def run_pair():
    testbed = make_testbed(2, seed=0)
    controller, initial = build_mistral(testbed)
    clean = testbed.run(controller, initial, "mistral", horizon=HORIZON)
    controller, initial = build_mistral(testbed)
    # Same strategy string so both runs draw from the same noise
    # streams; relabel for the report afterwards.
    faulted = testbed.run(
        controller, initial, "mistral", horizon=HORIZON, faults=fault_config()
    )
    clean.strategy = "mistral/clean"
    faulted.strategy = "mistral/faulted"
    return clean, faulted


def test_resilience_faults(benchmark):
    clean, faulted = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    stats = faulted.fault_stats

    rows = summarize_runs([clean, faulted])
    gap = clean.cumulative_utility() - faulted.cumulative_utility()
    aborted = sum(
        1 for record in faulted.actions if "[failed]" in record.description
    )
    rolled_back = sum(
        1 for record in faulted.actions if "[rollback]" in record.description
    )
    text = format_table(
        rows, title="Resilience: clean vs. faulted Mistral (first 3 h)"
    )
    text += (
        f"\n\nfault tally: {stats.action_failures} action failures, "
        f"{stats.host_crashes} host crash "
        f"({stats.total()} total)"
    )
    text += (
        f"\naction records: {aborted} failed attempts, "
        f"{rolled_back} rollback actions"
    )
    text += "\n\n" + paper_vs_measured(
        [
            (
                "faulted run completes consistently",
                "n/a (paper assumes success)",
                "yes",
            ),
            ("host crashes injected", "n/a", stats.host_crashes),
            (
                "utility gap paid for faults",
                "bounded",
                round(gap, 1),
            ),
        ]
    )
    emit("resilience_faults", text)

    assert stats.host_crashes == 1
    assert stats.total() >= 2
    assert faulted.cumulative_utility() <= clean.cumulative_utility()
