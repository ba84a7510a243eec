#!/usr/bin/env python
"""Seeded chaos soak over the resilience stack.

Sweeps a fault schedule against both search backends on the 2-app
testbed, with the post-decision invariant checker refereeing every
committed decision:

- one fault schedule, ``infra`` (action failures/stalls and a host
  crash);
- chaos cells run ``infra`` x {astar, annealing} under a watchdog
  deadline;
- control cells run each strategy twice with nothing failing: once
  with no fault injector at all (``none``) and once with the
  resilience machinery armed by an inert ``FaultConfig()``
  (``inert``).  The pair must produce **bit-identical** run traces
  (utility, power, action records, final configuration) — the
  hardening layers must cost nothing when nothing fails.

The soak fails (non-zero exit) on any invariant violation, any
unhandled exception, any faults-off identity break, a chaos cell
that injected nothing, or a chaos cell that missed a scheduled host
crash.  Results land in
``results/chaos_scorecard.txt`` (folded into EXPERIMENTS.md by
``scripts/build_experiments_md.py``) and the full telemetry trace in a
JSONL file for ``scripts/telemetry_report.py`` / CI artifacts.

Usage::

    python scripts/run_chaos.py                 # full soak
    python scripts/run_chaos.py --smoke         # shorter CI horizon
    python scripts/run_chaos.py --seed 7 --trace /tmp/chaos.jsonl
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.search import SearchSettings
from repro.faults import FaultConfig, HostCrash
from repro.telemetry import runtime as telemetry
from repro.testbed import build_mistral, make_testbed

#: Simulated horizons (seconds): enough monitoring windows for the
#: hierarchy to escape its bands and decide several times.
FULL_HORIZON = 1800.0
SMOKE_HORIZON = 960.0

#: When the ``infra`` schedule crashes a host: inside both horizons, so
#: the smoke runs the crash path too.
CRASH_TIME = 600.0


def fault_schedules(seed: int) -> dict:
    """The named fault schedules, each a seeded :class:`FaultConfig`
    (its seed offset from the base seed)."""
    return {
        # The PR-3 families: the world misbehaves around the controller.
        "infra": FaultConfig(
            seed=seed + 1,
            default_fail_probability=0.15,
            default_stall_probability=0.10,
            host_crashes=(HostCrash(time=CRASH_TIME, host_id="host-3"),),
        ),
    }


@dataclass
class CellResult:
    """Everything one soak cell produced, for the scorecard."""

    schedule: str  # "none"/"inert" for control cells
    strategy: str
    decisions: int = 0
    actions: int = 0
    faults: int = 0
    host_crashes: int = 0
    watchdog_aborts: int = 0
    violations: int = 0
    error: Optional[str] = None
    signature: Optional[tuple] = None
    violation_details: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.schedule}/{self.strategy}"


def _controller_stats(controller):
    """Summed ControllerStats across a hierarchy (or one controller)."""
    members = (
        controller.controllers()
        if hasattr(controller, "controllers")
        else [controller]
    )
    totals = {"decisions": 0, "watchdog_aborts": 0}
    for member in members:
        stats = getattr(member, "stats", None)
        if stats is None:
            continue
        for key in totals:
            totals[key] += getattr(stats, key, 0)
    return totals


def _signature(metrics) -> tuple:
    """The bit-identity fingerprint of one run's decision trace."""
    return (
        tuple(metrics.utility_increments.values),
        tuple(metrics.power_watts.values),
        tuple(metrics.hosts_powered.values),
        tuple(
            (record.start, record.end, record.controller, record.description)
            for record in metrics.actions
        ),
        repr(metrics.final_configuration),
    )


def run_cell(
    testbed,
    result: CellResult,
    faults: Optional[FaultConfig],
    horizon: float,
    search_settings: Optional[SearchSettings],
) -> CellResult:
    controller, initial = build_mistral(
        testbed,
        search_settings=search_settings,
        search_strategy=result.strategy,
    )
    try:
        metrics = testbed.run(
            controller,
            initial,
            "mistral",
            horizon=horizon,
            faults=faults,
            invariants=True,
        )
    except Exception as error:  # noqa: BLE001 - the soak's whole point
        result.error = f"{type(error).__name__}: {error}"
        traceback.print_exc()
        return result
    stats = _controller_stats(controller)
    result.decisions = stats["decisions"]
    result.watchdog_aborts = stats["watchdog_aborts"]
    result.actions = metrics.action_count()
    if metrics.fault_stats is not None:
        result.faults = metrics.fault_stats.total()
        result.host_crashes = metrics.fault_stats.host_crashes
    result.violations = len(metrics.invariant_violations)
    result.violation_details = [
        f"{violation.name}: {violation.detail}"
        for violation in metrics.invariant_violations
    ]
    result.signature = _signature(metrics)
    return result


def build_matrix(schedules: dict) -> tuple[list, list]:
    """(control cells, chaos cell specs).

    Control cells run faults-off; within each strategy the ``none`` and
    ``inert`` cells must produce a bit-identical trace.  Chaos cells
    run every schedule against every strategy.
    """
    strategies = ["astar", "annealing"]
    controls = [
        CellResult(schedule, strategy)
        for strategy in strategies
        for schedule in ("none", "inert")
    ]
    chaos = [
        (schedule, CellResult(schedule, strategy))
        for schedule in schedules
        for strategy in strategies
    ]
    return controls, chaos


def identity_check(controls: list) -> tuple[bool, list]:
    """Per strategy: every control cell matches the ``none`` cell's
    reference signature."""
    ok = True
    notes = []
    by_strategy: dict[str, list] = {}
    for cell in controls:
        by_strategy.setdefault(cell.strategy, []).append(cell)
    for strategy, cells in by_strategy.items():
        reference = next(
            (cell for cell in cells if cell.schedule == "none"),
            cells[0],
        )
        for cell in cells:
            if cell.error or reference.error:
                ok = False
                continue
            if cell.signature != reference.signature:
                ok = False
                notes.append(
                    f"{cell.label} diverges from {reference.label}"
                )
    return ok, notes


def scorecard(
    results: list,
    checks: dict,
    seed: int,
    horizon: float,
    smoke: bool,
) -> str:
    depth = "smoke" if smoke else "full soak"
    lines = [
        "Chaos harness resilience scorecard — seeded fault schedules vs "
        "the resilience stack "
        f"({depth}, seed {seed}, horizon {horizon:.0f}s)",
        f"{'cell':<22} {'decisions':>9} {'actions':>7} {'faults':>6} "
        f"{'aborts':>6} {'viol':>4} {'status':<8}",
        "-" * 77,
    ]
    for cell in results:
        status = "ERROR" if cell.error else "ok"
        lines.append(
            f"{cell.label:<22} {cell.decisions:>9} {cell.actions:>7} "
            f"{cell.faults:>6} {cell.watchdog_aborts:>6} "
            f"{cell.violations:>4} {status:<8}"
        )
        if cell.error:
            lines.append(f"    {cell.error}")
        for detail in cell.violation_details:
            lines.append(f"    violation: {detail}")
    lines += [
        "",
        "Control cells run faults-off and must be bit-identical per "
        "strategy: 'none' without a fault injector, 'inert' with an "
        "inert FaultConfig(); chaos cells must absorb every injected "
        "fault with zero invariant violations.",
        "checks: "
        + ", ".join(f"{name}={value}" for name, value in checks.items()),
    ]
    return "\n".join(lines) + "\n"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shorter horizon for the CI smoke leg",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base fault-schedule seed"
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="override the simulated horizon (seconds)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "results" / "chaos_scorecard.txt",
        help="where the scorecard block is written",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=REPO_ROOT / "chaos_trace.jsonl",
        help="JSONL telemetry trace of the whole soak",
    )
    args = parser.parse_args(argv)
    horizon = args.horizon or (
        SMOKE_HORIZON if args.smoke else FULL_HORIZON
    )

    testbed = make_testbed(app_count=2, seed=0)
    schedules = fault_schedules(args.seed)
    controls, chaos = build_matrix(schedules)
    # Chaos cells get a watchdog deadline.  Control cells run the
    # stock settings: their traces define the bit-identity reference.
    chaos_settings = SearchSettings(deadline_seconds=2.0)
    control_faults = {"none": None, "inert": FaultConfig()}

    results: list = []
    telemetry.enable(jsonl_path=str(args.trace))
    try:
        for cell in controls:
            print(f"control  {cell.label} ...", flush=True)
            results.append(
                run_cell(
                    testbed,
                    cell,
                    control_faults[cell.schedule],
                    horizon,
                    None,
                )
            )
        for schedule, cell in chaos:
            print(f"chaos    {cell.label} ...", flush=True)
            results.append(
                run_cell(
                    testbed,
                    cell,
                    schedules[schedule],
                    horizon,
                    chaos_settings,
                )
            )
    finally:
        telemetry.flush()
        telemetry.disable()

    control_results = [
        cell for cell in results if cell.schedule in control_faults
    ]
    chaos_results = [
        cell for cell in results if cell.schedule not in control_faults
    ]
    identical, identity_notes = identity_check(control_results)
    checks = {
        "faults_off_bit_identical": identical,
        "zero_invariant_violations": all(
            cell.violations == 0 for cell in results
        ),
        "zero_unhandled_exceptions": all(
            cell.error is None for cell in results
        ),
        "every_chaos_cell_injected_faults": all(
            cell.faults > 0 for cell in chaos_results
        ),
        "every_chaos_cell_crashed_every_scheduled_host": all(
            cell.host_crashes == len(schedules[cell.schedule].host_crashes)
            for cell in chaos_results
        ),
    }

    block = scorecard(results, checks, args.seed, horizon, args.smoke)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(block, encoding="utf-8")
    print()
    print(block, end="")
    print(f"wrote {args.output}")
    print(f"trace at {args.trace}")
    for note in identity_notes:
        print(f"identity: {note}", file=sys.stderr)
    if not all(checks.values()):
        failed = [name for name, value in checks.items() if not value]
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
