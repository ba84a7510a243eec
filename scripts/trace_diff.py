#!/usr/bin/env python
"""Compare two telemetry traces: phase profiles and decision streams.

Usage::

    python scripts/trace_diff.py baseline.jsonl candidate.jsonl
    python scripts/trace_diff.py a.jsonl b.jsonl --strict   # exit 1 on
                                                            # divergence

Two runs of the same scenario should make the *same decisions* (the
repository's bit-identity contract) while their *timings* drift with
the machine.  This tool separates the two:

- the phase-profile diff aggregates every ``profile.phases`` event per
  trace and prints per-phase wall/CPU totals side by side with the
  candidate/baseline ratio;
- the decision diff walks both ``controller.decision`` streams in
  order and flags the first index where they disagree (controller,
  action sequence, or predicted utility) — the divergence point — then
  summarizes how many decisions follow it.

Reads traces with ``scripts/telemetry_report.py``'s reader (malformed
lines skipped and counted).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from telemetry_report import SchemaError, read_trace  # noqa: E402

#: Relative tolerance when comparing predicted utilities: decisions
#: are bit-identical by contract, so any drift at all is a divergence;
#: the epsilon only forgives JSON round-tripping.
UTILITY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# phase profiles
# ---------------------------------------------------------------------------


def phase_totals(records: list[dict]) -> dict[str, dict]:
    """Aggregate all ``profile.phases`` events of one trace."""
    totals: dict[str, dict] = defaultdict(
        lambda: {"wall": 0.0, "cpu": 0.0, "calls": 0}
    )
    searches = 0
    for record in records:
        if (
            record.get("kind") != "event"
            or record.get("name") != "profile.phases"
        ):
            continue
        searches += 1
        for phase, entry in record.get("attrs", {}).get("phases", {}).items():
            row = totals[phase]
            row["wall"] += entry.get("wall", 0.0)
            row["cpu"] += entry.get("cpu", 0.0)
            row["calls"] += entry.get("calls", 0)
    result = dict(totals)
    result["__searches__"] = {"wall": 0.0, "cpu": 0.0, "calls": searches}
    return result


def diff_phases(baseline: dict, candidate: dict) -> list[dict]:
    names = [name for name in baseline if name != "__searches__"]
    names += [
        name
        for name in candidate
        if name != "__searches__" and name not in baseline
    ]
    rows = []
    for name in names:
        base = baseline.get(name, {"wall": 0.0, "cpu": 0.0, "calls": 0})
        cand = candidate.get(name, {"wall": 0.0, "cpu": 0.0, "calls": 0})
        rows.append(
            {
                "phase": name,
                "baseline_wall": base["wall"],
                "candidate_wall": cand["wall"],
                "wall_ratio": (
                    cand["wall"] / base["wall"] if base["wall"] else None
                ),
                "baseline_cpu": base["cpu"],
                "candidate_cpu": cand["cpu"],
                "baseline_calls": base["calls"],
                "candidate_calls": cand["calls"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# decision streams
# ---------------------------------------------------------------------------


def decision_stream(records: list[dict]) -> list[dict]:
    spans = [
        record
        for record in records
        if record.get("kind") == "span"
        and record.get("name") == "controller.decision"
    ]
    spans.sort(key=lambda record: record.get("seq", 0))
    return [
        {
            "controller": span.get("attrs", {}).get("controller", "?"),
            "t_sim": span.get("attrs", {}).get("t_sim", 0.0),
            "actions": list(span.get("attrs", {}).get("actions", [])),
            "predicted_utility": span.get("attrs", {}).get(
                "predicted_utility", 0.0
            ),
        }
        for span in spans
    ]


def _utilities_differ(a: float, b: float) -> bool:
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) > UTILITY_RTOL * scale


def find_divergence(
    baseline: list[dict], candidate: list[dict]
) -> tuple[int | None, str]:
    """First index (0-based) where the streams disagree, with a reason;
    ``(None, "")`` when they match."""
    for index, (base, cand) in enumerate(zip(baseline, candidate)):
        if base["controller"] != cand["controller"]:
            return index, (
                f"controller {base['controller']!r} vs "
                f"{cand['controller']!r}"
            )
        if base["actions"] != cand["actions"]:
            return index, (
                f"actions {base['actions']} vs {cand['actions']}"
            )
        if _utilities_differ(
            base["predicted_utility"], cand["predicted_utility"]
        ):
            return index, (
                f"predicted_utility {base['predicted_utility']!r} vs "
                f"{cand['predicted_utility']!r}"
            )
    if len(baseline) != len(candidate):
        return min(len(baseline), len(candidate)), (
            f"stream length {len(baseline)} vs {len(candidate)}"
        )
    return None, ""


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="baseline trace JSONL")
    parser.add_argument("candidate", type=Path, help="candidate trace JSONL")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the decision streams diverge",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    options = parser.parse_args(argv)
    try:
        base_records = read_trace(options.baseline)
        cand_records = read_trace(options.candidate)
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
    for path, records in (
        (options.baseline, base_records),
        (options.candidate, cand_records),
    ):
        if records.malformed_lines:
            print(
                f"warning: {path}: skipped {records.malformed_lines} "
                "malformed line(s)",
                file=sys.stderr,
            )

    base_phases = phase_totals(base_records)
    cand_phases = phase_totals(cand_records)
    phase_rows = diff_phases(base_phases, cand_phases)

    base_stream = decision_stream(base_records)
    cand_stream = decision_stream(cand_records)
    divergence, reason = find_divergence(base_stream, cand_stream)

    if options.json:
        print(
            json.dumps(
                {
                    "phases": phase_rows,
                    "baseline_searches": base_phases["__searches__"][
                        "calls"
                    ],
                    "candidate_searches": cand_phases["__searches__"][
                        "calls"
                    ],
                    "baseline_decisions": len(base_stream),
                    "candidate_decisions": len(cand_stream),
                    "divergence_index": divergence,
                    "divergence_reason": reason,
                },
                indent=2,
            )
        )
    else:
        print(
            f"phase profiles: baseline "
            f"{base_phases['__searches__']['calls']} searches, candidate "
            f"{cand_phases['__searches__']['calls']} searches"
        )
        if phase_rows:
            header = (
                f"{'phase':>10}  {'base wall':>10}  {'cand wall':>10}  "
                f"{'ratio':>6}  {'base cpu':>10}  {'cand cpu':>10}"
            )
            print(header)
            for row in phase_rows:
                ratio = (
                    f"{row['wall_ratio']:.2f}"
                    if row["wall_ratio"] is not None
                    else "n/a"
                )
                print(
                    f"{row['phase']:>10}  {row['baseline_wall']:10.4f}  "
                    f"{row['candidate_wall']:10.4f}  {ratio:>6}  "
                    f"{row['baseline_cpu']:10.4f}  "
                    f"{row['candidate_cpu']:10.4f}"
                )
        else:
            print("(no profile.phases events in either trace)")
        print(
            f"decisions: baseline {len(base_stream)}, candidate "
            f"{len(cand_stream)}"
        )
        if divergence is None:
            print("decision streams: identical")
        else:
            print(
                f"decision streams DIVERGE at decision "
                f"#{divergence + 1}: {reason}"
            )
            base_entry = (
                base_stream[divergence]
                if divergence < len(base_stream)
                else None
            )
            cand_entry = (
                cand_stream[divergence]
                if divergence < len(cand_stream)
                else None
            )
            for label, entry in (
                ("baseline", base_entry),
                ("candidate", cand_entry),
            ):
                if entry is None:
                    print(f"  {label}: (stream ended)")
                else:
                    print(
                        f"  {label}: t_sim={entry['t_sim']:g}s "
                        f"[{entry['controller']}] "
                        f"{entry['actions'] or 'null decision'} "
                        f"utility={entry['predicted_utility']!r}"
                    )
            remaining = max(
                len(base_stream), len(cand_stream)
            ) - divergence - 1
            if remaining > 0:
                print(f"  ({remaining} decision(s) follow the divergence)")
    if divergence is not None and options.strict:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
