#!/usr/bin/env python
"""CI perf-regression gate for the adaptation-search hot path.

Usage::

    python scripts/check_perf.py                    # measure live, gate
    python scripts/check_perf.py --input meas.json  # gate a saved payload
    python scripts/check_perf.py --record meas.json # save the measurement
    python scripts/check_perf.py --print-tolerances # emit a fresh
                                                    # PERF_TOLERANCES dict

Measures the perf-smoke scenarios (self-aware incremental searches at
the small system sizes, and the ``ideal`` scenario: fresh Perf-Pwr
optimizations over fixed workload vectors on the 2- and 4-app
testbeds) and compares the numbers against the recorded tolerances in
``benchmarks/perf/baseline_data.py`` (``PERF_TOLERANCES``):

- **counters** (``total_expansions``, ``total_estimator_evaluations``,
  per-phase ``calls``; the ideal's ``plans_scored``, ``tier_solves``,
  ``steps`` and ``evaluations``) are deterministic for a fixed scenario
  and must match exactly — any drift means the search explored a
  different tree, or the ideal scored a different set of plans or
  re-solved a different set of tiers;
- **CPU seconds** (scenario ``mean_cpu_seconds`` and per-phase ``cpu``
  from the ``profile.phases`` events) may grow up to ``cpu_ratio``
  times the recorded value.  Process-CPU time is gated instead of
  wall-clock because it is steadier on busy machines; phases whose
  recorded cost sits below ``min_gate_cpu_seconds`` are reported but
  not gated (too close to timer noise).

Exit status is non-zero when any gated check fails.  Absolute seconds
are machine-specific: on hardware other than the recording machine,
loosen the timing gate with ``--cpu-ratio`` (CI does) or re-record the
tolerances with ``--print-tolerances`` — the counter checks stay exact
everywhere.
"""

from __future__ import annotations

import argparse
import json
import pprint
import random
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(Path(__file__).resolve().parent))

from telemetry_report import read_trace  # noqa: E402

#: The ``ideal`` scenario: testbed sizes and seeded workload vectors.
IDEAL_SIZES = (2, 4)
IDEAL_VECTORS = 8


def _bootstrap() -> None:
    """Put the tree's ``src`` and the perf harness on ``sys.path``."""
    for path in (
        str(REPO_ROOT / "src"),
        str(REPO_ROOT / "benchmarks" / "perf"),
    ):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _phase_totals(trace_path: Path) -> dict[str, dict]:
    """Aggregate the ``profile.phases`` events of one trace file."""
    totals: dict[str, dict] = defaultdict(
        lambda: {"wall": 0.0, "cpu": 0.0, "calls": 0}
    )
    for record in read_trace(trace_path):
        if (
            record.get("kind") != "event"
            or record.get("name") != "profile.phases"
        ):
            continue
        for phase, entry in record.get("attrs", {}).get("phases", {}).items():
            row = totals[phase]
            row["wall"] += entry.get("wall", 0.0)
            row["cpu"] += entry.get("cpu", 0.0)
            row["calls"] += entry.get("calls", 0)
    return dict(totals)


def measure_ideal(sizes: tuple[int, ...], runs: int) -> dict[str, dict]:
    """Fresh Perf-Pwr optimizations of ``IDEAL_VECTORS`` seeded workload
    vectors per testbed size: the counts of one pass and its mean CPU
    seconds over ``runs`` passes, each from a cold estimator memo."""
    from repro.core.perf_pwr import PerfPwrOptimizer
    from repro.testbed import make_testbed

    ideal: dict[str, dict] = {}
    for app_count in sizes:
        testbed = make_testbed(app_count, seed=0)
        rng = random.Random(app_count)
        vectors = [
            {
                name: rng.uniform(5.0, 95.0)
                for name in testbed.applications.names()
            }
            for _ in range(IDEAL_VECTORS)
        ]
        cpu_seconds = []
        for _ in range(runs):
            testbed.estimator.clear_cache()
            optimizer = PerfPwrOptimizer(
                testbed.applications,
                testbed.catalog,
                testbed.limits,
                testbed.estimator,
                testbed.host_ids,
            )
            started = time.process_time()
            evaluations = sum(
                optimizer.optimize(workloads).evaluations
                for workloads in vectors
            )
            cpu_seconds.append(time.process_time() - started)
        ideal[f"apps-{app_count}"] = {
            "mean_cpu_seconds": statistics.fmean(cpu_seconds),
            "plans_scored": optimizer.plans_scored,
            "tier_solves": optimizer.tier_solves,
            "steps": optimizer.steps,
            "evaluations": evaluations,
        }
    return ideal


def measure(sizes: tuple[int, ...], runs: int) -> dict:
    """The gate's input payload, measured live from the current tree.

    Two passes per scenario: a timed pass with telemetry off (the
    numbers the CPU gate reads must not carry instrumentation cost)
    and an instrumented pass with telemetry routed to a scratch JSONL
    file, from which the per-phase profile is aggregated.
    """
    _bootstrap()
    import search_harness

    from repro.telemetry import runtime as telemetry

    # The gate's counters describe the exact A* tree; pin the backend so
    # a MISTRAL_SEARCH_STRATEGY environment (e.g. the walker CI leg)
    # cannot swap the search out from under the recorded tolerances.
    search: dict[str, dict] = {}
    for app_count in sizes:
        row = search_harness.bench_search(
            app_count,
            self_aware=True,
            incremental=True,
            runs=runs,
            strategy="astar",
        )
        search[f"apps-{app_count}"] = {
            "mean_search_seconds": row["mean_search_seconds"],
            "mean_cpu_seconds": row["mean_cpu_seconds"],
            "total_expansions": row["total_expansions"],
            "total_estimator_evaluations": row[
                "total_estimator_evaluations"
            ],
        }

    with tempfile.TemporaryDirectory(prefix="check_perf_") as scratch:
        trace_path = Path(scratch) / "phases.jsonl"
        telemetry.enable(jsonl_path=str(trace_path))
        try:
            for app_count in sizes:
                search_harness.bench_search(
                    app_count,
                    self_aware=True,
                    incremental=True,
                    runs=runs,
                    strategy="astar",
                )
            telemetry.flush()
        finally:
            telemetry.disable()
        phases = _phase_totals(trace_path)

    return {
        "meta": {"sizes": list(sizes), "runs": runs},
        "search": search,
        "phases": phases,
        "ideal": measure_ideal(IDEAL_SIZES, runs),
    }


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def compare(
    measurement: dict,
    tolerances: dict,
    cpu_ratio: float | None = None,
) -> list[dict]:
    """Every gate check as a row: ``{check, recorded, measured, limit,
    gated, ok}``.  Pure function of its inputs so tests can feed it
    doctored payloads."""
    ratio = cpu_ratio if cpu_ratio is not None else tolerances["cpu_ratio"]
    floor = tolerances["min_gate_cpu_seconds"]
    checks: list[dict] = []

    def check(name, recorded, measured, limit=None, gated=True, ok=None):
        if ok is None:
            ok = measured is not None and (
                limit is None or measured <= limit
            )
        checks.append(
            {
                "check": name,
                "recorded": recorded,
                "measured": measured,
                "limit": limit,
                "gated": gated,
                "ok": bool(ok) or not gated,
            }
        )

    def scenarios(section, prefix, counters):
        for scenario, recorded in sorted(tolerances[section].items()):
            name = prefix + scenario
            row = measurement.get(section, {}).get(scenario)
            if row is None:
                check(f"{name}: present", True, None, ok=False)
                continue
            for counter in counters:
                check(
                    f"{name}: {counter}",
                    recorded[counter],
                    row.get(counter),
                    ok=row.get(counter) == recorded[counter],
                )
            gated = recorded["mean_cpu_seconds"] >= floor
            check(
                f"{name}: mean_cpu_seconds",
                recorded["mean_cpu_seconds"],
                row.get("mean_cpu_seconds"),
                limit=ratio * recorded["mean_cpu_seconds"],
                gated=gated,
            )

    scenarios(
        "search", "", ("total_expansions", "total_estimator_evaluations")
    )
    scenarios(
        "ideal",
        "ideal ",
        ("plans_scored", "tier_solves", "steps", "evaluations"),
    )

    for phase, recorded in sorted(tolerances["phases"].items()):
        entry = measurement.get("phases", {}).get(phase)
        if entry is None:
            check(f"phase {phase}: present", True, None, ok=False)
            continue
        check(
            f"phase {phase}: calls",
            recorded["calls"],
            entry.get("calls"),
            ok=entry.get("calls") == recorded["calls"],
        )
        gated = recorded["cpu"] >= floor
        check(
            f"phase {phase}: cpu_seconds",
            recorded["cpu"],
            entry.get("cpu"),
            limit=ratio * recorded["cpu"],
            gated=gated,
        )

    return checks


def render(checks: list[dict]) -> str:
    lines = [
        f"{'check':<44} {'recorded':>12} {'measured':>12} "
        f"{'limit':>12}  status"
    ]

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6f}"
        return str(value)

    for row in checks:
        if not row["gated"]:
            status = "SKIP (below gate floor)"
        elif row["ok"]:
            status = "ok"
        else:
            status = "FAIL"
        lines.append(
            f"{row['check']:<44} {fmt(row['recorded']):>12} "
            f"{fmt(row['measured']):>12} {fmt(row['limit']):>12}  {status}"
        )
    failed = [row for row in checks if row["gated"] and not row["ok"]]
    lines.append(
        f"{len(checks)} checks, {len(failed)} failed"
        + (
            ""
            if not failed
            else " — perf regression (or stale tolerances: re-record "
            "with --print-tolerances on the recording machine)"
        )
    )
    return "\n".join(lines)


def _tolerances_from(measurement: dict, source: str) -> dict:
    """A ready-to-record ``PERF_TOLERANCES`` dict for ``baseline_data``."""
    return {
        "source": source,
        "note": (
            "recorded by scripts/check_perf.py --print-tolerances; "
            "counters are exact, CPU seconds are gated at cpu_ratio "
            "times these values (machine-specific — re-record on new "
            "hardware, or loosen with --cpu-ratio)"
        ),
        "sizes": measurement["meta"]["sizes"],
        "runs": measurement["meta"]["runs"],
        "cpu_ratio": 1.75,
        "min_gate_cpu_seconds": 0.005,
        "search": measurement["search"],
        "phases": measurement["phases"],
        "ideal": measurement["ideal"],
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--input",
        type=Path,
        default=None,
        help="gate a saved measurement payload instead of measuring live",
    )
    parser.add_argument(
        "--record",
        type=Path,
        default=None,
        help="also write the measurement payload here (JSON)",
    )
    parser.add_argument(
        "--print-tolerances",
        action="store_true",
        help="measure and print a fresh PERF_TOLERANCES dict for "
        "benchmarks/perf/baseline_data.py instead of gating",
    )
    parser.add_argument(
        "--cpu-ratio",
        type=float,
        default=None,
        help="override the recorded cpu_ratio gate (use a generous "
        "value on machines other than the recording one)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the check rows as JSON"
    )
    args = parser.parse_args(argv)

    _bootstrap()
    import baseline_data

    if args.input is not None:
        measurement = json.loads(args.input.read_text())
    else:
        tolerances = getattr(baseline_data, "PERF_TOLERANCES", None)
        sizes = tuple(
            (tolerances or {}).get("sizes", [2, 3])
        )
        runs = (tolerances or {}).get("runs", 3)
        measurement = measure(sizes, runs)

    if args.record is not None:
        args.record.write_text(json.dumps(measurement, indent=2) + "\n")
        print(f"wrote {args.record}", file=sys.stderr)

    if args.print_tolerances:
        print(
            "PERF_TOLERANCES = "
            + pprint.pformat(
                _tolerances_from(measurement, source="live measurement"),
                width=72,
                sort_dicts=False,
            )
        )
        return 0

    tolerances = getattr(baseline_data, "PERF_TOLERANCES", None)
    if tolerances is None:
        print(
            "error: benchmarks/perf/baseline_data.py has no "
            "PERF_TOLERANCES — record one with --print-tolerances",
            file=sys.stderr,
        )
        return 1

    checks = compare(measurement, tolerances, cpu_ratio=args.cpu_ratio)
    if args.json:
        print(json.dumps(checks, indent=2))
    else:
        print(render(checks))
    if any(row["gated"] and not row["ok"] for row in checks):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
