"""Regenerate EXPERIMENTS.md from the benchmark outputs in results/.

Run the benchmark suite first:

    pytest benchmarks/ --benchmark-only
    python scripts/build_experiments_md.py
"""

from __future__ import annotations

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by
`pytest benchmarks/ --benchmark-only` against the simulated testbed
(seed 0 unless noted).  This file is produced by
`python scripts/build_experiments_md.py` from the `results/` blocks the
benchmarks emit; the prose interprets them.

Absolute numbers are not expected to match the paper — the substrate is
a calibrated simulator, not the authors' Pentium-4/Xen testbed — the
reproduction targets are the *shapes*: who wins, by roughly what
factor, what grows with what.  DESIGN.md §7 lists the known deviations.

"""

SECTIONS = [
    (
        "fig1_migration_cost",
        "Fig. 1 — cost of a single live migration",
        """Paper: migrating one VM of a loaded 3-tier application raises
power by ~5-20% and response time by ~50-300%, for tens of seconds,
growing with the number of concurrent sessions.  Measured: both deltas
grow monotonically across 100/400/800 sessions with comparable
magnitudes and durations (~17-37 s).""",
    ),
    (
        "fig3_utility_function",
        "Fig. 3 — performance-utility reward/penalty",
        """Paper: reward increases and |penalty| decreases with request
rate, reflecting increasingly best-effort service.  Measured: exact
property checks pass; the scale is calibrated for the paper's ~20% net
profit over the default configuration's power cost.""",
    ),
    (
        "fig4_workloads",
        "Fig. 4 — the four application workloads",
        """Paper: two applications follow the scaled World Cup '98 trace
(flash crowd at ~16:52-17:14, broad evening peak near 100 req/s), two
follow the smoother scaled HP trace, all within 0-100 req/s over
15:00-21:30.  Measured: synthetic traces reproduce all of these
features (checks in the block below).""",
    ),
    (
        "fig5_model_accuracy",
        "Fig. 5 — performance/power model accuracy",
        """Paper: ~5% error for response time, utilization, and power over
the flash-crowd validation window.  Measured: utilization and power
land well inside that (~1% and <1%); response-time error is ~8-12%
because the validated configurations sit at high utilization where
1/(1-rho) amplifies the injected few-percent demand noise — same
mechanism, somewhat larger constant.""",
    ),
    (
        "fig6_stability",
        "Fig. 6 — stability-interval estimation",
        """Paper: ~14% average estimation error over 96 control windows.
Measured: the ARMA filter tracks the measured intervals and beats
naive persistence, but the mean relative error is substantially larger
(~40-90% depending on trace tuning): our synthetic band-escape process
mixes two applications' ripple phases and is intrinsically harder to
predict than the paper's trace-driven cadence.  Documented as the
largest shape deviation (DESIGN.md §7).""",
    ),
    (
        "fig7_adaptation_costs",
        "Fig. 7 — measured transient adaptation costs",
        """Paper: migration/replication costs grow with workload; MySQL
replica addition is slowest (~70 s at peak); response-time deltas reach
~700 ms; power deltas ~8-17%; host start ~90 s / ~80 W and shutdown
~30 s / ~20 W.  Measured: the offline campaign reproduces every shape
and the §V-B anchors within a few percent.""",
    ),
    (
        "fig8_strategies",
        "Fig. 8 — response times and power across strategies",
        """Paper: Perf-Cost holds the best response times but burns the
most power (its fixed 4-host pool); Perf-Pwr adapts most and
fluctuates/violates most; Mistral trades slight peak violations for
fewer hosts; Pwr-Cost sits between.  Measured: all of those orderings
hold (checks in the block).""",
    ),
    (
        "fig9_cumulative_utility",
        "Fig. 9 — cumulative utility (the headline result)",
        """Paper: Mistral 152.3 > Pwr-Cost 93.9 > Perf-Cost 26.3 >
Perf-Pwr -47.1.  Measured: the same strict ordering, with Mistral's
margin over Pwr-Cost asserted by the benchmark.  (Our Perf-Pwr is more
deeply negative than the paper's, and our Pwr-Cost is stronger —
sensitivities discussed in DESIGN.md §7.)""",
    ),
    (
        "fig10_search_cost",
        "Fig. 10 — the cost of the decision procedure",
        """Paper: the search draws up to ~12% over the controller host's
60 W idle; naive searches run up to ~4x longer than self-aware ones
(~24 s vs ~5.5 s); self-awareness improves cumulative utility (152.3
vs 135.3).  Measured: search power is bounded as modeled, naive
decision times dominate self-aware ones, and the self-aware variant
ends with higher utility.""",
    ),
    (
        "table1_scalability",
        "Table I — hierarchy scalability (2/3/4 applications)",
        """Paper: self-aware search durations grow roughly linearly with
system size (3.8 -> 7.5 s) while naive durations blow up (4.3 -> 35 s,
250 s at the 4-app 2nd level); the gap between Mistral's utility and
the cost-free ideal stays roughly constant.  Measured (over the first
3 h of the horizon to keep the naive runs tractable): naive durations
dwarf self-aware ones and grow faster with scenario size; the ideal
bounds Mistral everywhere.""",
    ),
    (
        "ablation_search",
        "Ablation — search mechanics (beyond the paper)",
        """The engineering DESIGN.md §7 documents: disabling the guidance
potential recovers the strictly admissible A* and its expansion
blowup; disabling plan seeding and full-gap pricing degrade the plans
found under the same budget.""",
    ),
    (
        "ablation_mistral",
        "Ablation — Mistral's controller extensions",
        """Contribution of the online model-feedback calibration and the
workload-trend extrapolation over the flash-crowd half of the
horizon.""",
    ),
    (
        # A recorded decision, not a benchmark block: no results file.
        None,
        "Inline round scoring — why there is no worker pool (beyond the paper)",
        """Mistral charges its own decision procedure against Eq. 3, so
evaluation machinery earns its place only by making the one controller
host decide faster.  Earlier versions of this reproduction could score
expansion rounds on a thread or forked-process pool and plan the
1st-level controllers concurrently.  Measured against inline scoring
on a 2-core x86_64 host (`PYTHONHASHSEED=0`, nothing else running),
the pool lost in every case, so it was deleted (DESIGN.md §11).
apps-4/6 are 5 self-aware A* searches on the `search_harness`
workloads, 4 repeats:

| case | inline | thread pool, 2 workers | process pool, 2 workers |
|---|---|---|---|
| apps-4, total wall | 1.99–2.81 s | 1.84–3.18 s | 2.42–3.29 s |
| … of which the pooled `predict` stage | 0.011–0.014 s | 0.024–0.040 s | 0.168–0.215 s |
| apps-6, total wall | 0.31–0.44 s | 0.34–0.42 s | 0.52–0.64 s |
| … of which the pooled `predict` stage | 0.028–0.038 s | 0.066–0.081 s | 0.164–0.262 s |

On the array core a pool can only take the cost prediction of a
round's memo misses: ≤0.6% of apps-4 search time, 9–10% on apps-6.
The scalar-batched rounds took 4.37 s inline and 15.1 s on the process
pool on apps-4, against 2.08 s for the array rounds.  In the closed
loop (`perfbench` horizons) a pool of 2 slowed loop-apps2 from 6.2 to
6.8 s and 7.6 to 8.4 s, and loop-apps4 from 7.9 to 15.9 s and 6.1 to
12.3 s, at identical decisions.""",
    ),
    (
        "search_strategies",
        "Search strategies — anytime walker vs exact A* (beyond the paper)",
        """The paper's decision procedure is exact A*; the reproduction
adds a pluggable anytime backend (docs/SEARCH_STRATEGIES.md): a
seeded simulated-annealing walker over the same action space,
evaluated through the same incremental solver.  (A UCB-guided MCTS
walker used to run beside it; an ablation found it never better, and
it was deleted — DESIGN.md §14.)  The block below compares single
high-load searches per backend.  Parity is the walker's utility gain
over the null (do-nothing) plan as a fraction of the self-aware A*'s
gain: on the scenarios every backend completes (2-4 apps) the walker
reaches >= 0.9 — in fact >= 1.0, since the pruned self-aware A*
trades optimality for speed and the walker out-plans it given more
time.  The anytime tier (10 apps / 20 hosts) runs under a 60 s
deadline: the exact naive A* — guidance off, the Table I blowup case
— hits the watchdog mid-search, while the walker returns a complete
plan inside the budget that beats the pruned A*'s utility outright.
Deterministic under fixed seeds; regenerated by
`pytest benchmarks/test_search_strategies.py --benchmark-only`.""",
    ),
    (
        "resilience_faults",
        "Resilience — faults, retries, rollback (beyond the paper)",
        """The paper assumes adaptation actions succeed; the reproduction
adds a deterministic fault-injection layer (docs/OPERATIONS.md) and
measures what faults cost.  The scenario scripts two failed migrations,
a 20% per-attempt action failure rate and one host crash into the
first 3 h of a 2-app run and compares it against the same run with
faults disabled: the faulted run must complete without
violating configuration consistency, charge the wasted transient cost
against Eq. 3, and end within a bounded utility gap of the clean run.""",
    ),
]


def unreferenced_blocks() -> list[str]:
    """results/*.txt blocks no SECTIONS entry claims, in name order."""
    known = {name for name, _, _ in SECTIONS}
    return sorted(
        path.stem
        for path in RESULTS.glob("*.txt")
        if path.stem not in known
    )


def build() -> str:
    parts = [HEADER]
    for name, title, prose in SECTIONS:
        parts.append(f"## {title}\n\n{prose}\n")
        if name is None:
            continue
        block = RESULTS / f"{name}.txt"
        if block.exists():
            parts.append("```\n" + block.read_text().strip() + "\n```\n")
        else:
            parts.append(
                "*(no recorded block — run `pytest benchmarks/ "
                "--benchmark-only` first)*\n"
            )
    extras = unreferenced_blocks()
    if extras:
        parts.append("## Additional recorded blocks\n")
        parts.append(
            "Benchmark outputs in `results/` without a curated section "
            "above (newer runs land here until the prose catches up).\n"
        )
        for name in extras:
            block = RESULTS / f"{name}.txt"
            parts.append(f"### {name}\n")
            parts.append("```\n" + block.read_text().strip() + "\n```\n")
    return "\n".join(parts)


if __name__ == "__main__":
    output = ROOT / "EXPERIMENTS.md"
    output.write_text(build(), encoding="utf-8")
    print(f"wrote {output}")
