#!/usr/bin/env python
"""Query a telemetry JSONL trace: filter, hotspots, decision drill-down.

Usage::

    # Filter records by name / attribute / time window
    python scripts/trace_query.py trace.jsonl --name "search.*"
    python scripts/trace_query.py trace.jsonl --kind event --attr controller=L1
    python scripts/trace_query.py trace.jsonl --since 10 --until 20

    # Top-N span hotspots by total duration
    python scripts/trace_query.py trace.jsonl --hotspots 10

    # List decisions, then drill into one (1-based index)
    python scripts/trace_query.py trace.jsonl --decisions
    python scripts/trace_query.py trace.jsonl --decision 3

The drill-down prints the decision's ``decision.provenance`` record
(see ``docs/TRACE_SCHEMA.md``): the chosen plan's per-term Eq. 3
utility breakdown, the per-action transient accrual, the top-k
rejected candidates with their rejection reason, and the search stats
— the answer to "why did the controller migrate?".

Reads traces with ``scripts/telemetry_report.py``'s reader:
truncated/malformed lines are skipped and counted.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from telemetry_report import SchemaError, read_trace  # noqa: E402

#: Provenance schema versions this reader understands (tracks
#: ``repro.telemetry.provenance.PROVENANCE_SCHEMA``).
KNOWN_PROVENANCE_SCHEMAS = {1}


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def parse_attr_filters(pairs: list[str]) -> list[tuple[str, str]]:
    filters = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"error: --attr expects key=value, got {pair!r}")
        filters.append((key, value))
    return filters


def matches(
    record: dict,
    name: str | None,
    kind: str | None,
    attr_filters: list[tuple[str, str]],
    since: float | None,
    until: float | None,
) -> bool:
    if kind is not None and record.get("kind") != kind:
        return False
    if name is not None:
        record_name = record.get("name") or ""
        if not (
            fnmatch.fnmatch(record_name, name) or name in record_name
        ):
            return False
    t = record.get("t")
    if since is not None and (t is None or t < since):
        return False
    if until is not None and (t is None or t > until):
        return False
    attrs = record.get("attrs", {})
    for key, expected in attr_filters:
        actual = attrs.get(key)
        if actual is None:
            return False
        if str(actual) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# hotspots
# ---------------------------------------------------------------------------


def hotspots(records: list[dict], top: int) -> list[dict]:
    """Top span names by total duration."""
    totals: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "max": 0.0}
    )
    for record in records:
        if record.get("kind") != "span":
            continue
        row = totals[record.get("name", "?")]
        dur = record.get("dur", 0.0) or 0.0
        row["count"] += 1
        row["total"] += dur
        row["max"] = max(row["max"], dur)
    ranked = sorted(
        totals.items(), key=lambda item: item[1]["total"], reverse=True
    )
    return [
        {
            "name": name,
            "count": row["count"],
            "total_seconds": row["total"],
            "mean_seconds": row["total"] / row["count"],
            "max_seconds": row["max"],
        }
        for name, row in ranked[:top]
    ]


# ---------------------------------------------------------------------------
# decision drill-down
# ---------------------------------------------------------------------------


def decision_spans(records: list[dict]) -> list[dict]:
    spans = [
        record
        for record in records
        if record.get("kind") == "span"
        and record.get("name") == "controller.decision"
    ]
    spans.sort(key=lambda record: record.get("seq", 0))
    return spans


def provenance_for(records: list[dict], span: dict) -> dict | None:
    """The ``decision.provenance`` event emitted inside ``span``."""
    seq = span.get("seq")
    for record in records:
        if (
            record.get("kind") == "event"
            and record.get("name") == "decision.provenance"
            and record.get("parent") == seq
        ):
            return record
    return None


def _fmt_actions(names: list[str]) -> str:
    return " -> ".join(names) if names else "(keep current configuration)"


def render_decision(index: int, span: dict, provenance: dict | None) -> str:
    attrs = span.get("attrs", {})
    out = [
        f"decision #{index}  controller={attrs.get('controller', '?')}  "
        f"t_sim={attrs.get('t_sim', 0.0):g}s  "
        f"window={attrs.get('control_window', 0.0):g}s",
        f"  chosen: {_fmt_actions(attrs.get('actions', []))}",
        f"  predicted_utility={attrs.get('predicted_utility', 0.0):.4f}  "
        f"expansions={attrs.get('expansions', 0)}  "
        f"decision_seconds={attrs.get('decision_seconds', 0.0):.3f}",
    ]
    if provenance is None:
        out.append(
            "  (no decision.provenance record — run with telemetry "
            "provenance collection enabled)"
        )
        return "\n".join(out)
    pattrs = provenance.get("attrs", {})
    schema = pattrs.get("schema")
    if schema not in KNOWN_PROVENANCE_SCHEMAS:
        out.append(
            f"  (provenance schema {schema!r} not supported by this reader)"
        )
        return "\n".join(out)
    utility = pattrs.get("utility", {})
    out.append("  utility breakdown (Eq. 3):")
    for key in (
        "steady",
        "transient",
        "total",
        "transient_perf",
        "transient_power",
        "baseline_utility",
        "delta_vs_current",
        "ideal_bound",
        "heuristic_gap",
        "adaptation_seconds",
        "remaining_seconds",
    ):
        if key in utility:
            out.append(f"    {key:>20}: {utility[key]:.4f}")
    per_action = pattrs.get("per_action", [])
    if per_action:
        out.append("  per-action transient accrual:")
        for step, entry in enumerate(per_action, start=1):
            out.append(
                f"    {step}. {entry.get('action', '?')}: "
                f"duration={entry.get('duration', 0.0):.1f}s "
                f"effective={entry.get('effective_seconds', 0.0):.1f}s "
                f"rate={entry.get('transient_rate', 0.0):.4f} "
                f"utility={entry.get('utility', 0.0):.4f}"
            )
    fault_debit = pattrs.get("fault_debit", 0.0)
    if fault_debit:
        out.append(
            f"  fault debit charged against this decision: "
            f"{fault_debit:.4f}"
        )
    rejected = pattrs.get("rejected", [])
    if rejected:
        out.append("  rejected candidates:")
        for entry in rejected:
            names = entry.get("actions", [])
            detail = f" [{_fmt_actions(names)}]" if names else ""
            count = entry.get("count", 1)
            plural = f" x{count}" if count > 1 else ""
            out.append(
                f"    - {entry.get('reason', '?')}{plural}: "
                f"{entry.get('score_kind', 'score')}="
                f"{entry.get('score', 0.0):.4f}{detail}"
            )
    else:
        out.append("  rejected candidates: none recorded")
    search = pattrs.get("search", {})
    if search:
        out.append(
            "  search: "
            f"expansions={search.get('expansions', 0)} "
            f"generated={search.get('children_generated', 0)} "
            f"pruned={search.get('children_pruned', 0)} "
            f"candidates={search.get('candidates', 0)} "
            f"pruning={search.get('pruning_activated', False)} "
            f"optimal={search.get('optimal', False)} "
            f"deadline_aborted={search.get('deadline_aborted', False)}"
        )
        out.append(
            "          "
            f"self_aware={search.get('self_aware', False)} "
            f"incremental={search.get('incremental', False)} "
            f"wall={search.get('wall_seconds', 0.0):.4f}s"
        )
        # Walker-produced records carry the backend name plus its own
        # tallies (accepted_moves/restarts/polish_passes for
        # annealing); print whatever is there so the drill-down
        # identifies the backend without a schema bump.
        known = {
            "expansions", "children_generated", "children_pruned",
            "candidates", "pruning_activated", "optimal", "early_return",
            "deadline_aborted", "self_aware", "incremental",
            "wall_seconds", "decision_seconds",
        }
        extras = {
            key: value
            for key, value in search.items()
            if key not in known
        }
        if extras:
            strategy = extras.pop("strategy", None)
            parts = [f"strategy={strategy}"] if strategy else []
            parts.extend(
                f"{key}={value}" for key, value in sorted(extras.items())
            )
            out.append("          " + " ".join(parts))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="telemetry JSONL file")
    parser.add_argument(
        "--name", help="record name filter (glob or substring)"
    )
    parser.add_argument(
        "--kind", choices=["span", "event", "meta"], help="record kind"
    )
    parser.add_argument(
        "--attr",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="attribute equality filter (repeatable)",
    )
    parser.add_argument(
        "--since", type=float, help="minimum record time (trace seconds)"
    )
    parser.add_argument(
        "--until", type=float, help="maximum record time (trace seconds)"
    )
    parser.add_argument(
        "--limit", type=int, default=50, help="max filtered records printed"
    )
    parser.add_argument(
        "--hotspots",
        type=int,
        metavar="N",
        help="print the top-N span hotspots by total duration",
    )
    parser.add_argument(
        "--decisions",
        action="store_true",
        help="list controller decisions (index, controller, plan)",
    )
    parser.add_argument(
        "--decision",
        type=int,
        metavar="N",
        help="drill into decision N (1-based; see --decisions)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    options = parser.parse_args(argv)
    attr_filters = parse_attr_filters(options.attr)
    try:
        records = read_trace(options.trace)
    except SchemaError as exc:
        print(
            f"error: unsupported trace schema version {exc.version!r} "
            f"in {exc.path}",
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if records.malformed_lines:
        print(
            f"warning: skipped {records.malformed_lines} malformed line(s)",
            file=sys.stderr,
        )

    if options.hotspots is not None:
        rows = hotspots(records, options.hotspots)
        if options.json:
            print(json.dumps(rows, indent=2))
        else:
            for row in rows:
                print(
                    f"{row['total_seconds']:10.4f}s  {row['count']:6d}x  "
                    f"mean {row['mean_seconds']:.5f}s  "
                    f"max {row['max_seconds']:.5f}s  {row['name']}"
                )
        return 0

    if options.decisions or options.decision is not None:
        spans = decision_spans(records)
        if options.decision is not None:
            if not 1 <= options.decision <= len(spans):
                print(
                    f"error: decision {options.decision} out of range "
                    f"(trace has {len(spans)})",
                    file=sys.stderr,
                )
                return 1
            span = spans[options.decision - 1]
            provenance = provenance_for(records, span)
            if options.json:
                print(
                    json.dumps(
                        {
                            "decision": span,
                            "provenance": provenance,
                        },
                        indent=2,
                    )
                )
            else:
                print(
                    render_decision(options.decision, span, provenance)
                )
            return 0
        for index, span in enumerate(spans, start=1):
            attrs = span.get("attrs", {})
            print(
                f"#{index}  t_sim={attrs.get('t_sim', 0.0):g}s  "
                f"[{attrs.get('controller', '?')}]  "
                f"{_fmt_actions(attrs.get('actions', []))}"
            )
        if not spans:
            print("no controller.decision spans in trace")
        return 0

    # Plain filter mode.
    selected = [
        record
        for record in records
        if matches(
            record,
            options.name,
            options.kind,
            attr_filters,
            options.since,
            options.until,
        )
    ]
    shown = selected[: options.limit]
    if options.json:
        print(json.dumps(shown, indent=2))
    else:
        for record in shown:
            kind = record.get("kind", "?")
            t = record.get("t", 0.0) or 0.0
            dur = record.get("dur")
            dur_text = f" dur={dur:.5f}s" if dur is not None else ""
            print(
                f"[{t:10.4f}s] {kind:5s} {record.get('name', '?')}"
                f"{dur_text}  attrs={json.dumps(record.get('attrs', {}))}"
            )
    if len(selected) > len(shown):
        print(
            f"... {len(selected) - len(shown)} more "
            "(raise --limit to see them)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
