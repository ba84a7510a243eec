"""Closed-loop control-window benchmark: one workload, one run.

Usage::

    python3 perfbench/run.py --workload loop-apps2 --seed 0 --seconds 26 --trace 0

Every episode is the real Mistral loop in a fresh process (see
``episode.py``), and episodes never overlap.  The parent pins
``PYTHONHASHSEED=0``, clears every ``MISTRAL_*`` switch and leaves
``parallel_workers`` unset, so the serial default path is what runs.

``--trace 0`` runs ``round(seconds / NOMINAL_EPISODE_S)`` timed
episodes (at least two) of the workload's input and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced
episode and reports the per-layer ledger.  The input is the paper's
scenario at testbed seed 0 whatever ``--seed`` says: ``--seed`` is
recorded, and README.md says why the timed input is fixed.

Either way the run fails (exit 1, ``"correct": false``) when an
episode raises or misses its horizon, when the invariant referee flags
a decision, or when the decision digest or ``cum_utility`` differs
between the episodes of the run.  The last line of standard output is
the JSON result; the full run record, with its metadata, is written
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import LAYERS, SOLVER_FAMILIES, Ledger
from workloads import (
    NOMINAL_EPISODE_S,
    REFERENCE_TESTBED_SEED,
    WORKLOADS,
    Workload,
    expected_windows,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
HASH_SEED = "0"
#: A run must end within 180 s; stop starting work after this.
RUN_BUDGET_S = 170.0
#: The decision tail is the highest percentile with this many
#: deciding windows beyond it.
TAIL_WINDOWS = 10
#: Time of one ``episode.speed_probe`` on the reference host (2 cores,
#: Python 3.11) when nothing else runs on it.  Timings are divided by
#: the measured probe time over this, so a host that slows down for a
#: while, which this one does by up to 1.7x, does not move them.
REFERENCE_PROBE_S = 0.015

END_TO_END = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "cum_utility": "utility",
    "peak_rss_mb": "MB",
    "decision_ok_frac": "ratio",
}

_GENERIC_LAYERS = tuple(layer for layer in LAYERS if layer != "solver")
PER_LAYER = {
    **{
        f"{layer}.{metric}": unit
        for layer in _GENERIC_LAYERS
        for metric, unit in (("calls", "count"), ("self_s", "s"))
        if (layer, metric) != ("sim", "calls")
    },
    "search.expansions": "count",
    "search.virtual_s": "s",
    "estimator.incremental_share": "ratio",
    "solver.full_calls": "count",
    "solver.full_s": "s",
    "solver.delta_calls": "count",
    "solver.delta_s": "s",
    "solver.batch_configs": "count",
    "solver.batch_s": "s",
    "workload.escapes": "count",
    "cluster.actions": "count",
    "sim.events": "count",
    "controller.decisions": "count",
    "controller.useful_ratio": "ratio",
    "group.astar_share": "ratio",
    "group.ideal_share": "ratio",
    "group.walker_share": "ratio",
    "ledger.loop_s": "s",
    "ledger.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# ----------------------------------------------------------------------
# environment and metadata
# ----------------------------------------------------------------------


def pinned_environment(hash_seed: str = HASH_SEED) -> dict:
    """The parent's environment with the hash seed pinned and every
    ``MISTRAL_*`` switch (workers, array core, strategy) cleared."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MISTRAL_")
    }
    env["PYTHONHASHSEED"] = hash_seed
    return env


def git_commit(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, episodes: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "episodes": episodes,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "hash_seed": HASH_SEED,
        "mistral_env_cleared": {
            key: value
            for key, value in os.environ.items()
            if key.startswith("MISTRAL_")
        },
    }


# ----------------------------------------------------------------------
# episodes
# ----------------------------------------------------------------------


def failed_record(workload: Workload, testbed_seed: int, error: str) -> dict:
    return {
        "workload": workload.name,
        "testbed_seed": testbed_seed,
        "setup_s": None,
        "loop_s": None,
        "expected_windows": expected_windows(workload),
        "windows": [],
        "digest": None,
        "cum_utility": None,
        "violations": None,
        "first_violation": None,
        "peak_rss_mb": None,
        "error": error,
    }


def spawn_episode(
    workload: Workload,
    testbed_seed: int,
    env: dict,
    deadline: float,
    spans: Path | None = None,
) -> dict:
    """Run one episode in a fresh process and wait for it to end."""
    command = [
        sys.executable,
        str(BENCH_DIR / "episode.py"),
        "--workload",
        workload.name,
        "--testbed-seed",
        str(testbed_seed),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        return failed_record(workload, testbed_seed, "run budget exhausted")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        return failed_record(
            workload, testbed_seed, f"timed out after {remaining:.0f} s"
        )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return failed_record(
            workload,
            testbed_seed,
            f"exit {done.returncode}: {done.stderr.strip()[-2000:]}",
        )


def window_counts(record: dict) -> tuple[int, int]:
    """``(attempted, failed)`` deciding windows of one episode.

    A deciding window is one in which at least one controller returned
    a decision (a null one included).  It fails when the referee flags
    it or the loop raised in it; every window the episode never reached
    counts as attempted and failed.
    """
    windows = record["windows"]
    attempted = sum(1 for window in windows if window[2] > 0)
    failed = sum(1 for window in windows if window[2] > 0 and window[3])
    if record["error"] is not None and windows:
        last = windows[-1]
        if last[2] == 0:
            attempted += 1
        if last[2] == 0 or not last[3]:
            failed += 1
    unreached = max(0, record["expected_windows"] - len(windows))
    return attempted + unreached, failed + unreached


def window_totals(records: list[dict]) -> tuple[int, int]:
    counts = [window_counts(record) for record in records]
    return sum(a for a, _ in counts), sum(f for _, f in counts)


def episode_problems(record: dict) -> list[str]:
    label = f"testbed seed {record['testbed_seed']}"
    problems = []
    if record["error"] is not None:
        problems.append(
            f"{label}: raised: {record['error'].strip().splitlines()[-1]}"
        )
    if len(record["windows"]) != record["expected_windows"]:
        problems.append(
            f"{label}: reached {len(record['windows'])} of "
            f"{record['expected_windows']} windows"
        )
    if record["violations"]:
        problems.append(
            f"{label}: invariant referee flagged {record['violations']} "
            f"violations, first {record['first_violation']}"
        )
    return problems


def identity_problems(records: list[dict], what: str) -> list[str]:
    """Same input, same decisions: digests and utilities must match."""
    complete = [r for r in records if r["error"] is None]
    problems = []
    if len({r["digest"] for r in complete}) > 1:
        problems.append(
            f"decision digest differs between {what}: "
            + ", ".join(r["digest"] for r in complete)
        )
    if len({r["cum_utility"] for r in complete}) > 1:
        problems.append(
            f"cum_utility differs between {what}: "
            + ", ".join(repr(r["cum_utility"]) for r in complete)
        )
    return problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _median(values, default=0.0) -> float:
    values = [value for value in values if value is not None]
    return float(statistics.median(values)) if values else default


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with ``TAIL_WINDOWS`` samples beyond it."""
    if samples <= 0:
        return 50
    return max(50, int(100 * (1 - TAIL_WINDOWS / samples)))


def _slowdown(probes: list) -> float:
    """How much slower than the reference host these speed probes ran."""
    probes = [probe for probe in probes if probe is not None]
    return statistics.mean(probes) / REFERENCE_PROBE_S if probes else 1.0


def _episode_slowdown(record: dict) -> float:
    return _slowdown(
        record.get("probes_before", [])
        + [window[4] for window in record["windows"]]
        + record.get("probes_after", [])
    )


def adjusted_window_walls(episodes: list[dict]) -> list[float]:
    """Each deciding window's speed-adjusted ``on_sample`` time: its wall
    time over the slowdown its neighbouring probes saw, fastest across
    the episodes.

    Every episode of a run replays the same input and makes the same
    decisions (the digest check enforces it), so window ``i`` is the same
    work in each; what differs is how fast the host ran at the time.
    """
    count = min((len(record["windows"]) for record in episodes), default=0)
    walls = []
    for index in range(count):
        adjusted = []
        for record in episodes:
            window = record["windows"][index]
            nearby = record["windows"][max(0, index - 2) : index + 3]
            if window[1] is not None:
                adjusted.append(window[1] / _slowdown([w[4] for w in nearby]))
        if episodes[0]["windows"][index][2] > 0 and adjusted:
            walls.append(min(adjusted))
    return walls


def end_to_end_metrics(episodes: list[dict]) -> tuple[dict, str]:
    latencies = adjusted_window_walls(episodes)
    percentile = tail_percentile(len(latencies))
    attempted, failed = window_totals(episodes)
    throughputs = [
        len(record["windows"]) * _episode_slowdown(record) / record["loop_s"]
        for record in episodes
        if record["loop_s"]
    ]
    values = {
        "setup_s": _median(
            r["setup_s"] / _slowdown(r.get("probes_before", []))
            for r in episodes
            if r["setup_s"] is not None
        ),
        "windows_per_s": max(throughputs, default=0.0),
        "decision_p50_ms": (
            1000.0 * float(np.percentile(latencies, 50)) if latencies else 0.0
        ),
        "decision_tail_ms": (
            1000.0 * float(np.percentile(latencies, percentile))
            if latencies
            else 0.0
        ),
        "cum_utility": _median(r["cum_utility"] for r in episodes),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in episodes),
        "decision_ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }
    slowdowns = ", ".join(f"{_episode_slowdown(r):.2f}" for r in episodes)
    note = (
        f"timings are adjusted to reference-host speed (episode slowdowns "
        f"{slowdowns}); decision_tail_ms is p{percentile} of {len(latencies)} "
        f"deciding windows, each the fastest of {len(episodes)} episodes; "
        f"windows_per_s is the fastest episode's; "
        f"decision_ok_frac = 1 - {failed}/{attempted}"
    )
    return values, note


def per_layer_metrics(
    ledger: Ledger, counters: dict, stats: dict, strategy: str, overhead: float
) -> dict:
    values: dict[str, float] = {}
    for layer in _GENERIC_LAYERS:
        if layer != "sim":
            values[f"{layer}.calls"] = ledger.layer_calls(layer)
        values[f"{layer}.self_s"] = ledger.layer_self_s(layer)
    solver_calls = dict.fromkeys(("full", "delta", "batch"), 0)
    solver_s = dict.fromkeys(("full", "delta", "batch"), 0.0)
    for name, calls in ledger.span_calls.items():
        layer, _, qualname = name.partition(":")
        if layer == "solver":
            family = SOLVER_FAMILIES[qualname.rsplit(".", 1)[1]]
            solver_calls[family] += calls
            solver_s[family] += ledger.span_self_s[name]
    values["solver.full_calls"] = solver_calls["full"]
    values["solver.full_s"] = solver_s["full"]
    values["solver.delta_calls"] = solver_calls["delta"]
    values["solver.delta_s"] = solver_s["delta"]
    values["solver.batch_configs"] = counters.get("solver.batch_configs", 0)
    values["solver.batch_s"] = solver_s["batch"]
    for counter in ("workload.escapes", "cluster.actions", "sim.events"):
        values[counter] = counters.get(counter, 0)
    values["search.expansions"] = stats["expansions"]
    values["search.virtual_s"] = stats["virtual_s"]
    values["estimator.incremental_share"] = (
        stats["incremental_evaluations"] / stats["evaluations"]
        if stats["evaluations"]
        else 0.0
    )
    values["controller.decisions"] = stats["decisions"]
    values["controller.useful_ratio"] = (
        stats["useful"] / stats["decisions"] if stats["decisions"] else 0.0
    )
    loop = ledger.loop_s
    search_share = ledger.owner_self_s["search"] / loop
    walker = strategy == "mcts"
    values["group.astar_share"] = 0.0 if walker else search_share
    values["group.walker_share"] = search_share if walker else 0.0
    values["group.ideal_share"] = ledger.owner_self_s["perf_pwr"] / loop
    values["ledger.loop_s"] = loop
    values["ledger.unattributed_frac"] = ledger.unattributed_s / loop
    values["trace.overhead_frac"] = overhead
    return values


def ledger_problems(ledger: Ledger, measured_loop_s: float) -> list[str]:
    """The layers' self times plus the remainder must add up to the
    traced ``Testbed.run`` wall."""
    problems = []
    total = ledger.attributed_s + ledger.unattributed_s
    if abs(total - ledger.loop_s) > 1e-6 * ledger.loop_s:
        problems.append(
            f"ledger sums to {total:.6f} s, traced loop is {ledger.loop_s:.6f} s"
        )
    if abs(ledger.loop_s - measured_loop_s) > 0.01 * measured_loop_s:
        problems.append(
            f"root span {ledger.loop_s:.3f} s != measured loop {measured_loop_s:.3f} s"
        )
    return problems


def format_ledger(ledger: Ledger) -> list[str]:
    loop = ledger.loop_s
    rows = [(layer, ledger.layer_calls(layer), ledger.layer_self_s(layer)) for layer in LAYERS]
    rows.append(("(unattributed)", ledger.layer_calls("root"), ledger.unattributed_s))
    lines = [f"{'layer':<16}{'calls':>10}{'self_s':>10}{'share':>8}"]
    for layer, calls, seconds in sorted(rows, key=lambda row: -row[2]):
        lines.append(f"{layer:<16}{calls:>10}{seconds:>10.3f}{seconds / loop:>8.1%}")
    lines.append(f"{'total':<16}{'':>10}{loop:>10.3f}")
    return lines


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def _cell(value, width: int, digits: int) -> str:
    return f"{'-':>{width}}" if value is None else f"{value:>{width}.{digits}f}"


def episode_line(record: dict, role: str) -> str:
    deciding = sum(1 for window in record["windows"] if window[2] > 0)
    return (
        f"{role:<10}{record['testbed_seed']:>6}{_cell(record['setup_s'], 9, 3)}"
        f"{_cell(record['loop_s'], 9, 3)}{len(record['windows']):>8}{deciding:>9}"
        f"  {record['digest'] or '-':<17}{_cell(record['cum_utility'], 12, 4)}"
        f"{_cell(record['peak_rss_mb'], 9, 1)}"
    )


EPISODE_HEADER = (
    f"{'episode':<10}{'seed':>6}{'setup_s':>9}{'loop_s':>9}{'windows':>8}"
    f"{'deciding':>9}  {'digest':<17}{'cum_utility':>12}{'rss_mb':>9}"
)


def timed_run(workload: Workload, args, env: dict, deadline: float):
    count = max(2, round(args.seconds / NOMINAL_EPISODE_S))
    episodes = [
        spawn_episode(workload, REFERENCE_TESTBED_SEED, env, deadline)
        for _ in range(count)
    ]
    problems = [p for record in episodes for p in episode_problems(record)]
    problems += identity_problems(episodes, "episodes")
    values, note = end_to_end_metrics(episodes)
    lines = [EPISODE_HEADER] + [episode_line(record, "timed") for record in episodes]
    return values, END_TO_END, problems, lines + [note], episodes


def traced_run(workload: Workload, args, env: dict, deadline: float):
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
    untraced = spawn_episode(workload, REFERENCE_TESTBED_SEED, env, deadline)
    traced = spawn_episode(
        workload, REFERENCE_TESTBED_SEED, env, deadline, spans=spans
    )
    every = [untraced, traced]
    problems = [p for record in every for p in episode_problems(record)]
    problems += identity_problems(every, "the untraced and traced episodes")
    lines = [EPISODE_HEADER, episode_line(untraced, "untraced")]
    lines.append(episode_line(traced, "traced"))
    values = dict.fromkeys(PER_LAYER, 0.0)
    if "ledger" in traced and untraced["loop_s"]:
        ledger = Ledger(**traced["ledger"])
        problems += ledger_problems(ledger, traced["loop_s"])
        overhead = (traced["loop_s"] - untraced["loop_s"]) / untraced["loop_s"]
        values = per_layer_metrics(
            ledger,
            traced["counters"],
            traced["controller"],
            workload.search_strategy or "astar",
            overhead,
        )
        lines += [""] + format_ledger(ledger) + [f"spans written to {spans}"]
    else:
        problems.append("no ledger: the traced or untraced episode failed")
    return values, PER_LAYER, problems, lines, every


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0, help="recorded; the input is fixed"
    )
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package at {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # Byte-compile outside the clock so every episode's set-up pays
    # the same import cost.
    compileall.compile_dir(ROOT / "src", quiet=1)
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    values, units, problems, lines, every = run(
        workload, args, pinned_environment(), deadline
    )
    attempted, failed = window_totals(every)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }

    meta = run_metadata(args, len(every))
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("\n".join(lines))
    print(f"\n{'metric':<30}{'value':>14}  unit")
    for name, unit in units.items():
        print(f"{name:<30}{values[name]:>14.4f}  {unit}")
    print("checks: ok" if not problems else "checks FAILED:")
    for problem in problems:
        print(f"  - {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(
        json.dumps(
            {"meta": meta, "result": result, "problems": problems, "episodes": every},
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
