"""Run every workload, timed and traced, and report known defects.

Usage::

    python3 perfbench/check.py [--seconds 26]

Runs ``run.py`` on each workload with ``--trace 0`` and then
``--trace 1``, one after another, and prints their output.  Then it
prints a summary: the end-to-end metrics per workload, the layer group
with the largest self-time share on each workload, and whether every
run passed its output checks (horizon reached, referee clean, decision
digest identical across the episodes of a run).

Two defects of the program are reported after that and not gated;
their fixes belong in ``src/``:

- decisions depend on ``PYTHONHASHSEED``: one ``loop-apps2`` episode
  is rerun under hash seeds 1-3 and compared with hash seed 0;
- on some testbed seeds other than the benchmark's, the invariant
  referee flags ``loop-apps2`` decisions: one episode per seed in
  ``SWEEP_SEEDS`` is run with the referee on.

Exit code 0 means every benchmark run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from run import (
    BENCH_DIR,
    ROOT,
    RUN_BUDGET_S,
    episode_problems,
    pinned_environment,
    spawn_episode,
)
from workloads import REFERENCE_TESTBED_SEED, WORKLOADS

GROUPS = ("astar", "ideal", "walker")
#: Testbed seeds the referee sweep runs ``loop-apps2`` on.
SWEEP_SEEDS = range(101, 111)


def run_benchmark(workload: str, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload",
            workload,
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    print(done.stdout, end="")
    print(done.stderr, end="", file=sys.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["exit"] = done.returncode
    return result


def episode(testbed_seed: int, hash_seed: int = 0) -> dict:
    return spawn_episode(
        WORKLOADS["loop-apps2"],
        testbed_seed,
        pinned_environment(str(hash_seed)),
        time.monotonic() + RUN_BUDGET_S,
    )


def hash_seed_divergence(hash_seeds=(0, 1, 2, 3)) -> list[str]:
    lines = ["hash-seed divergence on loop-apps2 (one episode each):"]
    pinned = None
    for hash_seed in hash_seeds:
        record = episode(REFERENCE_TESTBED_SEED, hash_seed)
        pinned = pinned or record
        same = record["digest"] == pinned["digest"]
        lines.append(
            f"  PYTHONHASHSEED={hash_seed}: digest {record['digest']} "
            f"({'same as' if same else 'differs from'} hash seed "
            f"{hash_seeds[0]}), cum_utility {record['cum_utility']!r}"
        )
    return lines


def referee_sweep() -> list[str]:
    lines = ["referee on other testbed seeds, loop-apps2 (one episode each):"]
    for seed in SWEEP_SEEDS:
        problems = episode_problems(episode(seed))
        lines.append("  " + ("; ".join(problems) or f"testbed seed {seed}: clean"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seconds", type=float, default=26.0)
    args = parser.parse_args(argv)

    summary = []
    passed = True
    for name in WORKLOADS:
        timed = run_benchmark(name, args.seconds, 0)
        traced = run_benchmark(name, args.seconds, 1)
        ok = all(r["correct"] and r["exit"] == 0 for r in (timed, traced))
        passed = passed and ok
        shares = {
            group: traced["metrics"].get(f"group.{group}_share", {}).get("value", 0.0)
            for group in GROUPS
        }
        largest = max(shares, key=shares.get)
        summary.append(f"{name}: checks {'ok' if ok else 'FAILED'}")
        summary += [
            f"  {metric:<20}{value['value']:>14.4f}  {value['unit']}"
            for metric, value in timed["metrics"].items()
        ]
        summary.append(
            "  layer groups (share of traced loop): "
            + ", ".join(f"{group} {share:.1%}" for group, share in shares.items())
            + f"; largest: {largest} (chosen to load: {WORKLOADS[name].loads})"
        )
    summary += hash_seed_divergence()
    summary += referee_sweep()
    print("\n== summary ==")
    print("\n".join(summary))
    print("all benchmark checks ok" if passed else "some benchmark checks FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
