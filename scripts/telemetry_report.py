#!/usr/bin/env python
"""Roll a telemetry JSONL trace into human-readable tables.

Usage::

    python scripts/telemetry_report.py trace.jsonl
    python scripts/telemetry_report.py trace.jsonl --json   # machine-readable

Reads a trace written by ``repro.telemetry`` (see DESIGN.md §9) and
prints:

- one row per controller (from ``controller.decision`` spans):
  decisions, null decisions, expansions, decision seconds, search
  wall time, search watts;
- the search totals (from ``search.run`` events): expansions,
  generated/pruned children and the prune rate, candidate pushes,
  early returns;
- estimator/solver/optimizer efficiency (from the last
  ``metrics.snapshot`` event): cache hit ratios, delta vs. full
  solver evaluations;
- a ``watchdog`` section rolling up ``watchdog.*`` events (deadline
  aborts with their overshoot) — omitted for traces without them;
- a per-span-name duration summary.

The reader refuses traces whose schema version it does not know —
regenerate the trace with a matching checkout instead of guessing at
field meanings.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

#: Schema versions this reader understands (must track
#: ``repro.telemetry.trace.SCHEMA_VERSION``).
KNOWN_SCHEMA_VERSIONS = {1}


class SchemaError(ValueError):
    """The trace's schema version is unknown to this reader."""

    def __init__(self, path: Path, lineno: int, version: object) -> None:
        super().__init__(
            f"{path}:{lineno}: telemetry schema version {version!r} "
            f"is not supported by this reader "
            f"(known: {sorted(KNOWN_SCHEMA_VERSIONS)}). "
            "Regenerate the trace with a matching checkout or "
            "update scripts/telemetry_report.py."
        )
        self.path = path
        self.version = version


class TraceEvents(list):
    """A list of trace records plus the count of lines skipped as
    unparseable (``malformed_lines``) — a crash-truncated trace ends in
    a torn line, and the report must survive it, not die on it."""

    malformed_lines: int = 0


def read_trace(path: Path) -> TraceEvents:
    """Parse a JSONL trace, validating every line's schema version.

    Truncated or otherwise malformed lines (torn tail of a crashed
    run, disk-full artifacts) are skipped and counted on the returned
    list's ``malformed_lines`` — only an *unknown schema version* on a
    well-formed line raises, because that means every field's meaning
    is in doubt, not just one line's bytes.
    """
    events = TraceEvents()
    malformed = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if not isinstance(event, dict):
                malformed += 1
                continue
            version = event.get("v")
            if version not in KNOWN_SCHEMA_VERSIONS:
                raise SchemaError(path, lineno, version)
            events.append(event)
    events.malformed_lines = malformed
    return events


# ---------------------------------------------------------------------------
# rollups
# ---------------------------------------------------------------------------


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def controller_rollup(events: list[dict]) -> dict[str, dict]:
    """Per-controller decision table from ``controller.decision`` spans."""
    rows: dict[str, dict] = {}
    for event in events:
        if event.get("kind") != "span" or event.get("name") != "controller.decision":
            continue
        attrs = event.get("attrs", {})
        name = attrs.get("controller", "?")
        row = rows.setdefault(
            name,
            {
                "decisions": 0,
                "null_decisions": 0,
                "actions": 0,
                "expansions": [],
                "decision_seconds": [],
                "wall_seconds": [],
                "search_watts": [],
            },
        )
        row["decisions"] += 1
        if attrs.get("null"):
            row["null_decisions"] += 1
        row["actions"] += len(attrs.get("actions", ()))
        row["expansions"].append(attrs.get("expansions", 0))
        row["decision_seconds"].append(attrs.get("decision_seconds", 0.0))
        row["wall_seconds"].append(event.get("dur", 0.0))
        row["search_watts"].append(attrs.get("search_watts", 0.0))
    return {
        name: {
            "decisions": row["decisions"],
            "null_decisions": row["null_decisions"],
            "actions": row["actions"],
            "total_expansions": sum(row["expansions"]),
            "mean_expansions": _mean(row["expansions"]),
            "mean_decision_seconds": _mean(row["decision_seconds"]),
            "max_decision_seconds": max(row["decision_seconds"], default=0.0),
            "mean_wall_seconds": _mean(row["wall_seconds"]),
            "mean_search_watts": _mean(row["search_watts"]),
        }
        for name, row in sorted(rows.items())
    }


def _last_metrics(events: list[dict]) -> dict:
    """The metrics of the last ``metrics.snapshot`` event (empty when
    the trace has none)."""
    snapshots = [
        event["attrs"]
        for event in events
        if event.get("kind") == "event"
        and event.get("name") == "metrics.snapshot"
    ]
    return snapshots[-1].get("metrics", {}) if snapshots else {}


def search_rollup(events: list[dict]) -> dict:
    """Search totals from ``search.run`` events, plus the A*'s
    expansion rounds from the ``search.rounds`` counter."""
    runs = [
        event["attrs"]
        for event in events
        if event.get("kind") == "event" and event.get("name") == "search.run"
    ]
    generated = sum(run.get("children_generated", 0) for run in runs)
    pruned = sum(run.get("children_pruned", 0) for run in runs)
    considered = generated + pruned
    counters = _last_metrics(events).get("counters", {})
    return {
        "runs": len(runs),
        "early_returns": sum(1 for run in runs if run.get("early_return")),
        "expansions": sum(run.get("expansions", 0) for run in runs),
        "rounds": counters.get("search.rounds", 0),
        "children_generated": generated,
        "children_pruned": pruned,
        "prune_rate": pruned / considered if considered else 0.0,
        "candidates": sum(run.get("candidates", 0) for run in runs),
        "pruning_activated": sum(
            1 for run in runs if run.get("pruning_activated")
        ),
        "mean_wall_seconds": _mean([run.get("dur", 0.0) for run in runs]),
        "mean_decision_seconds": _mean(
            [run.get("decision_seconds", 0.0) for run in runs]
        ),
    }


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def efficiency_rollup(events: list[dict]) -> dict:
    """Cache/solver efficiency from the last ``metrics.snapshot`` event."""
    metrics = _last_metrics(events)
    if not metrics:
        return {}
    counters = metrics.get("counters", {})
    caches = metrics.get("caches", {})
    evaluations = counters.get("estimator.evaluations", 0)
    incremental = counters.get("estimator.incremental_evaluations", 0)
    full_solves = counters.get("solver.full_solves", 0)
    incr_solves = counters.get("solver.incremental_solves", 0)
    optimizations = [
        event.get("attrs", {})
        for event in events
        if event.get("kind") == "event"
        and event.get("name") == "perf_pwr.optimize"
    ]
    return {
        "cache_hit_ratios": {
            name: {
                "hits": stats.get("hits", 0),
                "misses": stats.get("misses", 0),
                "hit_ratio": _ratio(
                    stats.get("hits", 0), stats.get("misses", 0)
                ),
                "evictions": stats.get("evictions", 0),
            }
            for name, stats in sorted(caches.items())
        },
        "estimator": {
            "evaluations": evaluations,
            "incremental_evaluations": incremental,
            "incremental_share": (
                incremental / evaluations if evaluations else 0.0
            ),
            "memo_hits": counters.get("estimator.memo_hits", 0),
        },
        "solver": {
            "full_solves": full_solves,
            "incremental_solves": incr_solves,
            "delta_share": _ratio(incr_solves, full_solves),
            "tiers_resolved": counters.get("solver.tiers_resolved", 0),
        },
        "perf_pwr": {
            "optimizations": counters.get("perf_pwr.optimizations", 0),
            "memo_hits": counters.get("perf_pwr.memo_hits", 0),
            "plans_scored": sum(
                attrs.get("plans_scored", 0) for attrs in optimizations
            ),
            "tier_solves": sum(
                attrs.get("tier_solves", 0) for attrs in optimizations
            ),
            "steps": sum(attrs.get("steps", 0) for attrs in optimizations),
        },
        "costmodel": {
            "predictions": counters.get("costmodel.predictions", 0),
            "memo_hits": counters.get("costmodel.memo_hits", 0),
        },
        "counters": counters,
        "gauges": metrics.get("gauges", {}),
        "histograms": metrics.get("histograms", {}),
    }


def resilience_rollup(events: list[dict]) -> dict:
    """Fault/recovery behavior from ``fault.*`` / ``recovery.*`` /
    ``resilience.*`` events (empty dict for fault-free traces)."""
    fault_actions: dict[str, int] = defaultdict(int)
    crashes = 0
    retries = 0
    backoffs: list[float] = []
    plans_aborted = 0
    rollbacks = 0
    rollback_actions = 0
    rollback_skips = 0
    wasted_utility = 0.0
    degradations: list[dict] = []
    recoveries = 0
    replans = 0
    noop_decisions = 0
    invariant_violations = 0
    for event in events:
        if event.get("kind") != "event":
            continue
        name = event.get("name", "")
        attrs = event.get("attrs", {})
        if name == "fault.action":
            fault_actions[attrs.get("mode", "?")] += 1
        elif name == "fault.host_crash":
            crashes += 1
        elif name == "recovery.retry":
            retries += 1
            backoffs.append(attrs.get("backoff_seconds", 0.0))
        elif name == "recovery.plan_aborted":
            plans_aborted += 1
        elif name == "recovery.rollback":
            rollbacks += 1
            rollback_actions += attrs.get("actions", 0)
        elif name == "recovery.rollback_skipped":
            rollback_skips += 1
        elif name == "resilience.plan_waste":
            wasted_utility += attrs.get("wasted_utility", 0.0)
        elif name == "resilience.degraded":
            degradations.append(
                {
                    "controller": attrs.get("controller", "?"),
                    "level": attrs.get("level", "?"),
                    "cause": attrs.get("cause", "?"),
                    "t_sim": attrs.get("t_sim", 0.0),
                }
            )
        elif name == "resilience.recovered":
            recoveries += 1
        elif name == "resilience.replan":
            replans += 1
        elif name == "resilience.noop_decision":
            noop_decisions += 1
        elif name == "chaos.invariant_violation":
            invariant_violations += 1
    total_faults = sum(fault_actions.values()) + crashes
    if (
        total_faults == 0
        and plans_aborted == 0
        and not degradations
        and invariant_violations == 0
    ):
        return {}
    return {
        "faults": {
            "actions": dict(sorted(fault_actions.items())),
            "host_crashes": crashes,
            "total": total_faults,
        },
        "recovery": {
            "retries": retries,
            "mean_backoff_seconds": _mean(backoffs),
            "plans_aborted": plans_aborted,
            "rollbacks": rollbacks,
            "rollback_actions": rollback_actions,
            "rollback_skips": rollback_skips,
            "wasted_utility": wasted_utility,
        },
        "degradation": {
            "events": degradations,
            "recoveries": recoveries,
            "replans": replans,
            "noop_decisions": noop_decisions,
        },
        "invariant_violations": invariant_violations,
    }


def watchdog_rollup(events: list[dict]) -> dict:
    """Search watchdog behavior from ``watchdog.*`` events (empty dict
    when none)."""
    deadline_aborts: list[dict] = []
    search_aborts = 0
    for event in events:
        if event.get("kind") != "event":
            continue
        name = event.get("name", "")
        attrs = event.get("attrs", {})
        if name == "watchdog.deadline_abort":
            deadline_aborts.append(
                {
                    "deadline": attrs.get("deadline", 0.0),
                    "wall_seconds": attrs.get("wall_seconds", 0.0),
                    "expansions": attrs.get("expansions", 0),
                    "actions": attrs.get("actions", 0),
                }
            )
        elif name == "watchdog.search_aborted":
            search_aborts += 1
    if not (deadline_aborts or search_aborts):
        return {}
    return {
        "deadline_aborts": len(deadline_aborts),
        "search_aborts": search_aborts,
        "max_overshoot_seconds": max(
            (
                abort["wall_seconds"] - abort["deadline"]
                for abort in deadline_aborts
            ),
            default=0.0,
        ),
        "aborts": deadline_aborts,
    }


def span_rollup(events: list[dict]) -> dict[str, dict]:
    """Count and total duration per span name."""
    rows: dict[str, dict] = defaultdict(lambda: {"count": 0, "total": 0.0})
    for event in events:
        if event.get("kind") != "span":
            continue
        row = rows[event.get("name", "?")]
        row["count"] += 1
        row["total"] += event.get("dur", 0.0)
    return {
        name: {
            "count": row["count"],
            "total_seconds": row["total"],
            "mean_seconds": row["total"] / row["count"],
        }
        for name, row in sorted(rows.items())
    }


def build_report(events: list[dict]) -> dict:
    """All rollups in one JSON-friendly dict."""
    return {
        "events": len(events),
        "malformed_lines": getattr(events, "malformed_lines", 0),
        "controllers": controller_rollup(events),
        "search": search_rollup(events),
        "efficiency": efficiency_rollup(events),
        "resilience": resilience_rollup(events),
        "watchdog": watchdog_rollup(events),
        "spans": span_rollup(events),
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render(report: dict) -> str:
    out = [f"telemetry report — {report['events']} events"]
    if report.get("malformed_lines"):
        out.append(
            f"warning: skipped {report['malformed_lines']} malformed "
            "line(s) (truncated trace?)"
        )

    controllers = report["controllers"]
    if controllers:
        out.append("\n== controllers ==")
        out.append(
            _table(
                [
                    "controller",
                    "decisions",
                    "null",
                    "actions",
                    "expansions",
                    "mean dec s",
                    "mean wall s",
                    "watts",
                ],
                [
                    [
                        name,
                        str(row["decisions"]),
                        str(row["null_decisions"]),
                        str(row["actions"]),
                        str(row["total_expansions"]),
                        f"{row['mean_decision_seconds']:.3f}",
                        f"{row['mean_wall_seconds']:.3f}",
                        f"{row['mean_search_watts']:.1f}",
                    ]
                    for name, row in controllers.items()
                ],
            )
        )

    search = report["search"]
    if search.get("runs"):
        out.append("\n== search ==")
        out.append(
            f"runs={search['runs']} (early returns {search['early_returns']}, "
            f"pruning activated in {search['pruning_activated']})"
        )
        out.append(
            f"expansions={search['expansions']} "
            f"(rounds {search['rounds']})  "
            f"children generated={search['children_generated']} "
            f"pruned={search['children_pruned']} "
            f"(prune rate {search['prune_rate']:.1%})  "
            f"candidates={search['candidates']}"
        )
        out.append(
            f"mean wall={search['mean_wall_seconds']:.4f}s  "
            f"mean decision={search['mean_decision_seconds']:.3f}s"
        )

    efficiency = report["efficiency"]
    if efficiency:
        out.append("\n== caches ==")
        out.append(
            _table(
                ["cache", "hits", "misses", "hit ratio", "evictions"],
                [
                    [
                        name,
                        str(stats["hits"]),
                        str(stats["misses"]),
                        f"{stats['hit_ratio']:.1%}",
                        str(stats["evictions"]),
                    ]
                    for name, stats in efficiency["cache_hit_ratios"].items()
                ],
            )
        )
        estimator = efficiency["estimator"]
        solver = efficiency["solver"]
        perf_pwr = efficiency["perf_pwr"]
        costmodel = efficiency["costmodel"]
        out.append("\n== evaluation paths ==")
        out.append(
            f"estimator: {estimator['evaluations']} evaluations, "
            f"{estimator['incremental_evaluations']} incremental "
            f"({estimator['incremental_share']:.1%}), "
            f"{estimator['memo_hits']} memo hits"
        )
        out.append(
            f"solver: {solver['full_solves']} full vs "
            f"{solver['incremental_solves']} delta solves "
            f"(delta share {solver['delta_share']:.1%}), "
            f"{solver['tiers_resolved']} tiers re-solved"
        )
        out.append(
            f"perf-pwr: {perf_pwr['optimizations']} optimizations, "
            f"{perf_pwr['memo_hits']} memo hits, "
            f"{perf_pwr['plans_scored']} plans scored "
            f"({perf_pwr['tier_solves']} tier solves) in "
            f"{perf_pwr['steps']} steps"
        )
        out.append(
            f"cost model: {costmodel['predictions']} predictions, "
            f"{costmodel['memo_hits']} memo hits"
        )
        histogram_rows = [
            [
                name,
                str(histogram.get("count", 0)),
                f"{histogram.get('mean', 0.0):.6f}",
                f"{histogram.get('p50', 0.0):.6f}",
                f"{histogram.get('p90', 0.0):.6f}",
                f"{histogram.get('p99', 0.0):.6f}",
            ]
            for name, histogram in sorted(
                efficiency.get("histograms", {}).items()
            )
            if histogram.get("count")
        ]
        if histogram_rows:
            out.append("\n== efficiency ==")
            out.append(
                _table(
                    ["histogram", "count", "mean s", "p50", "p90", "p99"],
                    histogram_rows,
                )
            )

    resilience = report.get("resilience", {})
    if resilience:
        faults = resilience["faults"]
        recovery = resilience["recovery"]
        degradation = resilience["degradation"]
        out.append("\n== resilience ==")
        action_summary = (
            ", ".join(
                f"{count} {mode}" for mode, count in faults["actions"].items()
            )
            or "none"
        )
        out.append(
            f"faults={faults['total']}  actions: {action_summary}  "
            f"host crashes: {faults['host_crashes']}"
        )
        out.append(
            f"retries={recovery['retries']} "
            f"(mean backoff {recovery['mean_backoff_seconds']:.0f}s)  "
            f"plans aborted={recovery['plans_aborted']}  "
            f"rollbacks={recovery['rollbacks']} "
            f"({recovery['rollback_actions']} undo actions, "
            f"{recovery['rollback_skips']} skipped)"
        )
        out.append(
            f"wasted utility={recovery['wasted_utility']:.2f}  "
            f"replans={degradation['replans']}  "
            f"noop decisions={degradation['noop_decisions']}  "
            f"ladder recoveries={degradation['recoveries']}"
        )
        for entry in degradation["events"]:
            out.append(
                f"  degraded -> {entry['level']} "
                f"[{entry['controller']}] cause={entry['cause']} "
                f"t={entry['t_sim']:.0f}s"
            )
        out.append(
            f"invariant violations={resilience['invariant_violations']}"
        )

    watchdog = report.get("watchdog", {})
    if watchdog:
        out.append("\n== watchdog ==")
        out.append(
            f"{watchdog['deadline_aborts']} deadline aborts, "
            f"{watchdog['search_aborts']} controller aborts, "
            f"max overshoot {watchdog['max_overshoot_seconds']:.3f}s"
        )

    spans = report["spans"]
    if spans:
        out.append("\n== spans ==")
        out.append(
            _table(
                ["span", "count", "total s", "mean s"],
                [
                    [
                        name,
                        str(row["count"]),
                        f"{row['total_seconds']:.3f}",
                        f"{row['mean_seconds']:.4f}",
                    ]
                    for name, row in spans.items()
                ],
            )
        )
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="telemetry JSONL file")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the rollup as JSON instead of tables",
    )
    options = parser.parse_args(argv)
    try:
        events = read_trace(options.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = build_report(events)
    if options.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
