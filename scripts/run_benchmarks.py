#!/usr/bin/env python
"""Run the search/solver perf harness and write ``BENCH_search.json``.

Usage::

    python scripts/run_benchmarks.py                  # measure, write JSON
    python scripts/run_benchmarks.py --runs 3 --sizes 2 3
    python scripts/run_benchmarks.py --baseline-src /path/to/old/src

The output records the current tree's numbers next to the pre-change
baseline (either the numbers recorded in
``benchmarks/perf/baseline_data.py`` or a live measurement of another
checkout via ``--baseline-src``) and the per-scenario speedups, so the
performance trajectory travels with the repository.  See DESIGN.md's
"Performance architecture" section for how to read the file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _bootstrap(src: Path) -> None:
    """Put one tree's ``src`` (and the harness) on sys.path, clearing
    any previously imported ``repro`` modules."""
    for name in [name for name in sys.modules if name.startswith("repro")]:
        del sys.modules[name]
    sys.path[:] = [
        entry
        for entry in sys.path
        if not entry.endswith("/src") or Path(entry) == src
    ]
    for path in (str(src), str(REPO_ROOT / "benchmarks" / "perf")):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def _measure(src: Path, sizes: tuple[int, ...], runs: int,
             incremental_only: bool,
             metrics_size: int | None = None,
             strategy: str | None = None,
             strategy_deadline: float | None = None) -> dict:
    _bootstrap(src)
    for name in [
        name for name in sys.modules if name.startswith("search_harness")
    ]:
        del sys.modules[name]
    import search_harness

    kwargs = {}
    if metrics_size is not None:
        kwargs["metrics_size"] = metrics_size
    if strategy is not None:
        # Baseline checkouts may predate the pluggable-strategy column;
        # only the current tree is asked for it.
        kwargs["strategy"] = strategy
        kwargs["strategy_deadline"] = strategy_deadline
    return search_harness.run_suite(
        sizes=sizes, runs=runs, incremental_only=incremental_only, **kwargs
    )


def _git_dirty() -> str:
    """Porcelain status of the tree, "" when clean or git is absent."""
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def _history_row(payload: dict) -> dict:
    """One flat summary line per suite run for ``BENCH_history.jsonl``.

    Keeps just enough to plot the performance trajectory over time —
    per-scenario mean search seconds and the speedup-vs-baseline ratios
    — without the full payload's nested detail.
    """
    meta = payload["meta"]
    history_labels = ("naive", "self_aware")
    timings = {
        scenario: {
            label: entry[label]["mean_search_seconds"]
            for label in entry
            # Strategy columns (e.g. ``mcts_deadline``) are tagged by
            # their own label so trajectory rows separate per backend.
            if label in history_labels or entry[label].get("strategy")
        }
        for scenario, entry in payload["current"]["search"].items()
    }
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": meta["commit"],
        "python": meta["python"],
        "machine": meta["machine"],
        "runs_per_scenario": meta["runs_per_scenario"],
        "sizes": meta["sizes"],
        "search_strategy": meta.get("search_strategy"),
        "strategy_deadline_seconds": meta.get("strategy_deadline_seconds"),
        "mean_search_seconds": timings,
        "speedup_vs_baseline": payload["speedup_vs_baseline"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_search.json",
        help="where to write the results (default: repo root)",
    )
    parser.add_argument(
        "--runs", type=int, default=5, help="searches per scenario"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[2, 3, 4],
        help="scenario sizes (app counts) to benchmark",
    )
    parser.add_argument(
        "--baseline-src",
        type=Path,
        default=None,
        help="src/ of a pre-change checkout: measure the baseline live "
        "instead of using the recorded numbers",
    )
    parser.add_argument(
        "--skip-full-eval",
        action="store_true",
        help="skip the search variants with the incremental engine off",
    )
    parser.add_argument(
        "--strategy",
        type=str,
        default=None,
        help="add a per-scenario column timing this pluggable search "
        "strategy (e.g. 'mcts'); measured only on the current tree",
    )
    parser.add_argument(
        "--strategy-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cap the --strategy column's searches with the anytime "
        "deadline watchdog; the column then also counts watchdog "
        "aborts and records the incumbent utility at the deadline",
    )
    parser.add_argument(
        "--metrics-size",
        type=int,
        default=None,
        help="app count the instrumented telemetry pass runs at "
        "(default: the smallest size in --sizes)",
    )
    parser.add_argument(
        "--append-history",
        nargs="?",
        type=Path,
        const=REPO_ROOT / "BENCH_history.jsonl",
        default=None,
        metavar="PATH",
        help="append one summary row (timestamp, commit, per-scenario "
        "mean seconds, speedups) to this JSONL history file "
        "(default path: BENCH_history.jsonl at the repo root)",
    )
    parser.add_argument(
        "--allow-dirty",
        action="store_true",
        help="permit recording from a tree with uncommitted changes "
        "(the commit stamp gains a -dirty suffix)",
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.metrics_size is not None and args.metrics_size not in args.sizes:
        parser.error("--metrics-size must be one of --sizes")
    if args.strategy_deadline is not None and args.strategy is None:
        parser.error("--strategy-deadline requires --strategy")
    if args.strategy_deadline is not None and args.strategy_deadline <= 0:
        parser.error("--strategy-deadline must be positive")
    sizes = tuple(args.sizes)

    dirty = _git_dirty()
    if dirty and not args.allow_dirty:
        print(
            "refusing to record benchmarks from a dirty tree — the "
            "commit stamp would not identify what was measured.\n"
            "Commit or stash first, or pass --allow-dirty to record "
            "with a -dirty stamp.\nUncommitted changes:",
            file=sys.stderr,
        )
        print(dirty, file=sys.stderr)
        return 1

    print(f"measuring current tree ({REPO_ROOT / 'src'}) ...", flush=True)
    current = _measure(
        REPO_ROOT / "src", sizes, args.runs, args.skip_full_eval,
        metrics_size=args.metrics_size,
        strategy=args.strategy, strategy_deadline=args.strategy_deadline,
    )

    if args.baseline_src is not None:
        print(f"measuring baseline ({args.baseline_src}) ...", flush=True)
        baseline_payload = _measure(
            args.baseline_src.resolve(), sizes, args.runs, True
        )
        baseline = {
            "source": str(args.baseline_src),
            "note": "measured live from --baseline-src",
            **baseline_payload,
        }
    else:
        _bootstrap(REPO_ROOT / "src")
        import baseline_data

        baseline = baseline_data.BASELINE

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if dirty:
            commit += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"

    import search_harness

    payload = {
        "meta": {
            "commit": commit,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "runs_per_scenario": args.runs,
            "sizes": list(sizes),
            "search_strategy": args.strategy,
            "strategy_deadline_seconds": args.strategy_deadline,
        },
        "baseline": baseline,
        "current": current,
        # Instrumented-pass telemetry (hit ratios, prune rate, delta
        # share) surfaced next to the timings; None when the measured
        # tree predates repro.telemetry.
        "metrics": current.pop("metrics", None),
        "speedup_vs_baseline": search_harness.summarize_speedup(
            current["search"], baseline["search"]
        ),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.append_history is not None:
        with open(args.append_history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(_history_row(payload)) + "\n")
        print(f"appended history row to {args.append_history}")
    for scenario, entry in payload["speedup_vs_baseline"].items():
        printable = {
            label: (f"{ratio:.2f}x" if ratio else "n/a")
            for label, ratio in entry.items()
        }
        print(f"  {scenario}: {printable}")
    if args.strategy is not None:
        column = (
            args.strategy
            if args.strategy_deadline is None
            else f"{args.strategy}_deadline"
        )
        print(f"strategy column ({column}):")
        for scenario, entry in current["search"].items():
            row = entry.get(column)
            if row is None:
                continue
            print(
                f"  {scenario}: {row['mean_search_seconds']:.3f}s mean, "
                f"utility {row['mean_predicted_utility']:.1f}, "
                f"{row['deadline_aborts']}/{row['runs']} deadline aborts"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
