"""Fault injection: kill a host and fail migrations under Mistral.

Runs the 2-application scenario for two simulated hours under the demo
fault scenario from docs/OPERATIONS.md: the first two migration
attempts fail (exercising retry with exponential backoff, and rollback
if the retry budget runs out) and one host crashes an hour in,
stranding its VMs and forcing the hierarchy to re-plan.  Prints the
fault tally, the recovery actions, and what the faults cost in Eq. 3
utility against the same run with faults disabled.

Run with:  python examples/fault_injection.py
"""

from repro import telemetry
from repro.testbed import build_mistral, demo_fault_config, make_testbed

HORIZON = 2 * 3600.0


def main() -> None:
    testbed = make_testbed(app_count=2, seed=0)

    # The clean reference: same controller, same noise streams, no
    # injector attached (bit-identical to a run with an inert
    # FaultConfig()).
    controller, initial = build_mistral(testbed)
    clean = testbed.run(controller, initial, "mistral", horizon=HORIZON)

    # The faulted run.  demo_fault_config scripts two migration
    # failures and one host crash; seed only matters for probabilistic
    # faults, which this scenario does not use.
    controller, initial = build_mistral(testbed)
    telemetry.enable()
    faulted = testbed.run(
        controller,
        initial,
        "mistral",
        horizon=HORIZON,
        faults=demo_fault_config(seed=0, crash_time=3600.0),
    )
    counters = telemetry.registry.snapshot()["counters"]
    telemetry.disable()

    stats = faulted.fault_stats
    print(
        f"faults injected: {stats.total()} "
        f"({stats.action_failures} action failures, "
        f"{stats.host_crashes} host crash)"
    )
    print(
        f"recovery: {counters.get('recovery.retries', 0)} retries, "
        f"{counters.get('recovery.plans_aborted', 0)} plans aborted, "
        f"{counters.get('recovery.rollbacks', 0)} rollbacks, "
        f"{counters.get('resilience.replans', 0)} forced replans"
    )
    print(
        f"utility: clean {clean.cumulative_utility():+.2f} vs "
        f"faulted {faulted.cumulative_utility():+.2f} "
        f"(faults cost "
        f"{clean.cumulative_utility() - faulted.cumulative_utility():.2f})"
    )
    print()
    print("fault-affected actions:")
    for record in faulted.actions:
        if "[" not in record.description:
            continue
        print(
            f"  t={record.start:7.0f}s  [{record.controller}]  "
            f"{record.description}"
        )


if __name__ == "__main__":
    main()
