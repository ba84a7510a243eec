#!/usr/bin/env python
"""Seeded chaos soak over the hardened search stack.

Sweeps fault schedules against both search backends on the 2-app
testbed, with the post-decision invariant checker refereeing every
committed decision:

- two fault schedules — ``infra`` (action failures/stalls, a host
  crash, monitoring drop/stale) and ``persistence`` (checkpoint-write
  rot, injected solver faults, walker stalls against the watchdog);
- chaos cells run every schedule x {astar, annealing}, each with a
  checkpoint lineage that is loaded and restored afterwards
  (exercising quarantine + ring rollback when the newest snapshot
  rotted);
- control cells run each strategy twice with nothing failing: once
  with no fault injector at all (``none``) and once with the
  resilience machinery armed — an inert ``FaultConfig()`` plus a
  checkpoint lineage (``inert``).  The pair must produce
  **bit-identical** run traces (utility, power, action records, final
  configuration) — the hardening layers must cost nothing when
  nothing fails.

The soak fails (non-zero exit) on any invariant violation, any
unhandled exception, any faults-off identity break, or a corrupt
restore that the store failed to refuse.  Results land in
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
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.checkpoint import CheckpointError, CheckpointStore, restore
from repro.core.search import SearchSettings
from repro.faults import FaultConfig, HostCrash
from repro.telemetry import runtime as telemetry
from repro.testbed import build_mistral, make_testbed

#: Simulated horizons (seconds): enough monitoring windows for the
#: hierarchy to escape its bands and decide several times.
FULL_HORIZON = 1800.0
SMOKE_HORIZON = 960.0


def fault_schedules(seed: int) -> dict:
    """The named fault schedules, each a seeded :class:`FaultConfig`.

    Seeds are offset per schedule so zeroing one schedule's knobs never
    shifts another's draws (the injector is per-run anyway; the offsets
    keep the schedules visibly independent).
    """
    return {
        # The PR-3 families: the world misbehaves around the controller.
        "infra": FaultConfig(
            seed=seed + 1,
            default_fail_probability=0.15,
            default_stall_probability=0.10,
            sample_drop_probability=0.05,
            sample_stale_probability=0.05,
            host_crashes=(HostCrash(time=1080.0, host_id="host-3"),),
        ),
        # Persistence and the walkers misbehave.
        "persistence": FaultConfig(
            seed=seed + 3,
            checkpoint_corruption_probability=0.30,
            solver_exception_probability=0.05,
            strategy_stall_probability=0.05,
            strategy_stall_seconds=0.05,
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
    strategy_failures: int = 0
    watchdog_aborts: int = 0
    violations: int = 0
    checkpoint: str = "-"  # "ok" | "rolled_back" | "lost" | "-"
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
    totals = {
        "decisions": 0,
        "strategy_failures": 0,
        "watchdog_aborts": 0,
    }
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


def _verify_checkpoint(testbed, path: Path, result: CellResult) -> None:
    """Load + restore the cell's checkpoint lineage after the run.

    A rotted head must quarantine and roll back to an older generation;
    only when every retained generation rotted may the store refuse
    (``lost`` — the correct refusal, not a failure).  A load that
    *returns* but fails to restore is a real failure.
    """
    store = CheckpointStore(path)
    try:
        snapshot = store.load()
    except CheckpointError:
        result.checkpoint = f"lost({len(store.quarantined())}q)"
        return
    fresh, _ = build_mistral(testbed)
    fresh.enable_resilience()
    restore(fresh, snapshot)  # raises on a corrupt/partial restore
    quarantined = len(store.quarantined())
    result.checkpoint = f"rolled_back({quarantined}q)" if quarantined else "ok"


def run_cell(
    testbed,
    result: CellResult,
    faults: Optional[FaultConfig],
    horizon: float,
    checkpoint_dir: Optional[Path],
    search_settings: Optional[SearchSettings],
) -> CellResult:
    controller, initial = build_mistral(
        testbed, search_settings=search_settings
    )
    checkpoint = None
    if checkpoint_dir is not None:
        safe = result.label.replace("/", "_")
        checkpoint = checkpoint_dir / f"{safe}.json"
    try:
        metrics = testbed.run(
            controller,
            initial,
            "mistral",
            horizon=horizon,
            faults=faults,
            checkpoint=checkpoint,
            search_strategy=result.strategy,
            invariants=True,
        )
    except Exception as error:  # noqa: BLE001 - the soak's whole point
        result.error = f"{type(error).__name__}: {error}"
        traceback.print_exc()
        return result
    stats = _controller_stats(controller)
    result.decisions = stats["decisions"]
    result.strategy_failures = stats["strategy_failures"]
    result.watchdog_aborts = stats["watchdog_aborts"]
    result.actions = metrics.action_count()
    result.faults = (
        metrics.fault_stats.total() if metrics.fault_stats else 0
    )
    result.violations = len(metrics.invariant_violations)
    result.violation_details = [
        f"{violation.name}: {violation.detail}"
        for violation in metrics.invariant_violations
    ]
    result.signature = _signature(metrics)
    if checkpoint is not None:
        try:
            _verify_checkpoint(testbed, checkpoint, result)
        except Exception as error:  # noqa: BLE001
            result.error = f"checkpoint: {type(error).__name__}: {error}"
            traceback.print_exc()
    return result


def build_matrix() -> tuple[list, list]:
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
        for schedule in ("infra", "persistence")
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
        "the hardened search stack "
        f"({depth}, seed {seed}, horizon {horizon:.0f}s)",
        f"{'cell':<22} {'decisions':>9} {'actions':>7} {'faults':>6} "
        f"{'fallbacks':>9} {'aborts':>6} {'viol':>4} "
        f"{'checkpoint':<15} {'status':<8}",
        "-" * 103,
    ]
    for cell in results:
        status = "ERROR" if cell.error else "ok"
        lines.append(
            f"{cell.label:<22} {cell.decisions:>9} {cell.actions:>7} "
            f"{cell.faults:>6} "
            f"{cell.strategy_failures:>9} {cell.watchdog_aborts:>6} "
            f"{cell.violations:>4} {cell.checkpoint:<15} {status:<8}"
        )
        if cell.error:
            lines.append(f"    {cell.error}")
        for detail in cell.violation_details:
            lines.append(f"    violation: {detail}")
    lines += [
        "",
        "Control cells run faults-off and must be bit-identical per "
        "strategy: 'none' without a fault injector, 'inert' with an "
        "inert FaultConfig() and a checkpoint lineage; chaos cells must "
        "absorb every injected fault with zero invariant violations.  "
        "'checkpoint' reports the post-run restore of the cell's "
        "snapshot lineage: ok, rolled_back(Nq) after quarantine, or "
        "lost(Nq) when every retained generation rotted (the store's "
        "correct refusal).",
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
    controls, chaos = build_matrix()
    # Chaos cells get a watchdog deadline (so injected stalls have a
    # tripwire to hit).  Control cells run the stock settings: their
    # traces define the bit-identity reference.
    chaos_settings = SearchSettings(deadline_seconds=2.0)
    control_faults = {"none": None, "inert": FaultConfig()}

    results: list = []
    telemetry.enable(jsonl_path=str(args.trace))
    try:
        with tempfile.TemporaryDirectory(prefix="chaos-ckpt-") as tmp:
            checkpoint_dir = Path(tmp)
            for cell in controls:
                print(f"control  {cell.label} ...", flush=True)
                faults = control_faults[cell.schedule]
                results.append(
                    run_cell(
                        testbed,
                        cell,
                        faults,
                        horizon,
                        checkpoint_dir if faults is not None else None,
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
                        checkpoint_dir,
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
    injected_per_schedule = {
        name: sum(
            cell.faults
            for cell in chaos_results
            if cell.schedule == name
        )
        for name in schedules
    }
    checks = {
        "faults_off_bit_identical": identical,
        "zero_invariant_violations": all(
            cell.violations == 0 for cell in results
        ),
        "zero_unhandled_exceptions": all(
            cell.error is None for cell in results
        ),
        "every_schedule_injected_faults": all(
            count > 0 for count in injected_per_schedule.values()
        ),
        "checkpoints_survived_or_refused": all(
            cell.checkpoint != "-"
            for cell in results
            if cell.schedule != "none"
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
