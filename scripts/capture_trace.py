#!/usr/bin/env python
"""Run an experiment with telemetry enabled and write a JSONL trace.

Usage::

    python scripts/capture_trace.py --out trace.jsonl                # quick smoke
    python scripts/capture_trace.py --out trace.jsonl --fig10 --horizon 3600
    python scripts/capture_trace.py --out trace.jsonl --faults --horizon 7200

The default mode runs a handful of adaptation searches against the
2-app testbed (fast; CI uses this).  ``--fig10`` runs the Fig. 10
search-cost experiment instead — naive vs. self-aware Mistral on the
real control loop — so the trace contains per-controller decision
spans.  ``--faults`` runs the demo fault scenario from
docs/OPERATIONS.md (scripted migration failures plus a host crash
halfway through the horizon), so the trace carries ``fault.*`` /
``recovery.*`` / ``resilience.*`` events.  Feed the output to
``scripts/telemetry_report.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry import runtime as telemetry  # noqa: E402


def capture_search_smoke(runs: int) -> None:
    """A few self-aware searches from the consolidated start."""
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
        settings=SearchSettings(self_aware=True),
    )
    names = [app.name for app in testbed.applications]
    start = initial_configuration(testbed)
    for run in range(runs):
        workloads = {
            name: 45.0 + 5.0 * index + run
            for index, name in enumerate(names)
        }
        search.perf_pwr.optimize(workloads)
        search.search(start, workloads, 300.0)
    telemetry.emit_metrics_snapshot(mode="search-smoke", runs=runs)


def capture_fig10(horizon: float, app_count: int, seed: int) -> None:
    """The Fig. 10 experiment (naive vs. self-aware control loops)."""
    from repro.experiments.fig10_search_cost import run_fig10

    run_fig10(app_count=app_count, seed=seed, horizon=horizon)


def capture_faults(horizon: float, app_count: int, seed: int) -> None:
    """The demo fault scenario (docs/OPERATIONS.md walkthrough)."""
    from repro.testbed import build_mistral, demo_fault_config, make_testbed

    testbed = make_testbed(app_count, seed=seed)
    controller, initial = build_mistral(testbed)
    metrics = testbed.run(
        controller,
        initial,
        "mistral",
        horizon=horizon,
        faults=demo_fault_config(seed=seed, crash_time=horizon / 2.0),
    )
    stats = metrics.fault_stats
    print(f"cumulative utility: {metrics.cumulative_utility():.2f}")
    print(
        f"faults injected: {stats.total()} "
        f"({stats.action_failures} action failures, "
        f"{stats.host_crashes} host crashes)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("telemetry_trace.jsonl"),
        help="where to write the JSONL trace",
    )
    parser.add_argument(
        "--fig10",
        action="store_true",
        help="trace the Fig. 10 experiment instead of the search smoke",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="trace the demo fault scenario (docs/OPERATIONS.md)",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=3600.0,
        help="experiment horizon in simulated seconds (fig10 mode)",
    )
    parser.add_argument(
        "--apps", type=int, default=2, help="system size (fig10 mode)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--runs", type=int, default=3, help="searches (smoke mode)"
    )
    options = parser.parse_args(argv)

    telemetry.enable(jsonl_path=str(options.out))
    try:
        if options.fig10:
            capture_fig10(options.horizon, options.apps, options.seed)
        elif options.faults:
            capture_faults(options.horizon, options.apps, options.seed)
        else:
            capture_search_smoke(options.runs)
    finally:
        telemetry.disable()
    print(f"wrote {options.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
