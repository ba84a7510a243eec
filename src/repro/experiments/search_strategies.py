"""Strategy comparison — pluggable anytime searches (DESIGN.md §14).

Beyond the paper: Mistral's decision procedure is exact A*; the
reproduction adds anytime walkers (seeded MCTS and simulated
annealing) behind ``SearchSettings.strategy``.  This experiment
compares the backends on single adaptation searches in two tiers:

- **parity tier** (2/3/4 apps): every backend plans the same
  high-load search to completion; the walkers must recover at least
  :data:`PARITY_FLOOR` of the production (self-aware) A*'s utility
  *gain over the null plan* — the do-nothing incumbent every anytime
  search starts from;
- **anytime tier** (10 apps / 20 hosts): under a wall-clock deadline
  the exact naive A* — the paper's Table I blowup case — hits the
  watchdog mid-search, while the walkers return complete,
  deadline-respecting plans whose utility still beats the pruned
  self-aware A*'s.

Single searches (the benchmark-harness methodology: consolidated
start, high-load workload vector) rather than full-horizon controller
runs, because the question is the decision procedure's time/quality
trade-off, not closed-loop behavior — Fig. 8/9 already cover that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.search import AdaptationSearch, SearchSettings
from repro.testbed.scenarios import (
    _global_perf_pwr,
    initial_configuration,
    make_testbed,
)

#: Scenario sizes where every backend (including naive A*) completes.
PARITY_SIZES = (2, 3, 4)
#: The large-scenario tier (20 hosts) only the anytime walkers finish
#: under deadline.
ANYTIME_SIZE = 10
#: Wall-clock budget for the anytime tier.  The exact naive search
#: needs hours at 20 hosts; the walkers converge well inside this.
ANYTIME_DEADLINE_SECONDS = 60.0
#: Walkers must reach this fraction of the self-aware A*'s utility
#: gain over the null plan on scenarios both solve.
PARITY_FLOOR = 0.9

#: Planning horizon of every search (one control window, as in the
#: perf harness).
CONTROL_WINDOW = 300.0


@dataclass
class StrategyRow:
    """One (scenario, backend) measurement."""

    scenario: str
    app_count: int
    host_count: int
    label: str
    strategy: str
    wall_seconds: float
    predicted_utility: float
    null_utility: float
    #: Utility gain over null, as a fraction of the self-aware A*'s
    #: gain on the same scenario; ``None`` when A*'s own gain is ~0.
    parity: Optional[float]
    deadline_aborted: bool
    plan_actions: int


def _high_workloads(testbed) -> dict[str, float]:
    """A far-from-ideal load vector (the harness methodology), cycled
    so large scenarios stay below saturation per app."""
    return {
        name: 45.0 + 5.0 * (index % 6)
        for index, name in enumerate(testbed.applications.names())
    }


def _run_backend(
    testbed,
    label: str,
    deadline: Optional[float] = None,
    **settings_kwargs,
) -> StrategyRow:
    settings = SearchSettings(
        self_aware=settings_kwargs.pop("self_aware", True),
        incremental=True,
        deadline_seconds=deadline,
        **settings_kwargs,
    )
    search = AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=settings,
    )
    start = initial_configuration(testbed)
    workloads = _high_workloads(testbed)
    null_utility = CONTROL_WINDOW * float(
        testbed.estimator.estimate(start, workloads).total_rate
    )
    search.perf_pwr.optimize(workloads)  # warm the shared ideal
    wall_0 = time.perf_counter()
    outcome = search.search(start, workloads, CONTROL_WINDOW)
    return StrategyRow(
        scenario=f"apps-{len(testbed.applications.names())}",
        app_count=len(testbed.applications.names()),
        host_count=len(testbed.host_ids),
        label=label,
        strategy=outcome.strategy,
        wall_seconds=time.perf_counter() - wall_0,
        predicted_utility=float(outcome.predicted_utility),
        null_utility=null_utility,
        parity=None,
        deadline_aborted=outcome.deadline_aborted,
        plan_actions=len(outcome.actions),
    )


def _fill_parity(rows: list[StrategyRow]) -> None:
    """Parity of every row against its scenario's self-aware A* row."""
    references = {
        row.scenario: row for row in rows if row.label == "astar"
    }
    for row in rows:
        reference = references.get(row.scenario)
        if reference is None:
            continue
        astar_gain = reference.predicted_utility - reference.null_utility
        if abs(astar_gain) < 1e-9:
            continue
        row.parity = (
            row.predicted_utility - row.null_utility
        ) / astar_gain


def run_strategy_comparison(
    parity_sizes: Sequence[int] = PARITY_SIZES,
    anytime_size: int = ANYTIME_SIZE,
    deadline: float = ANYTIME_DEADLINE_SECONDS,
    seed: int = 0,
) -> list[StrategyRow]:
    """All (scenario, backend) rows of both tiers."""
    rows: list[StrategyRow] = []
    for app_count in parity_sizes:
        testbed = make_testbed(app_count=app_count, seed=seed)
        rows.append(_run_backend(testbed, "astar", strategy="astar"))
        for walker in ("mcts", "annealing"):
            rows.append(_run_backend(testbed, walker, strategy=walker))

    testbed = make_testbed(app_count=anytime_size, seed=seed)
    # The pruned production search: fast but suboptimal at this scale —
    # the quality reference the walkers are asked to beat.
    rows.append(_run_backend(testbed, "astar", strategy="astar"))
    # The exact search (guidance off recovers the strictly admissible
    # ordering whose frontier blows up — the paper's Table I naive
    # case); the expansion cap is lifted so the wall-clock watchdog is
    # what stops it.
    rows.append(
        _run_backend(
            testbed,
            "naive_astar",
            deadline=deadline,
            strategy="astar",
            self_aware=False,
            guidance_weight=0.0,
            max_expansions=1_000_000,
        )
    )
    for walker in ("mcts", "annealing"):
        rows.append(
            _run_backend(testbed, walker, deadline=deadline, strategy=walker)
        )
    _fill_parity(rows)
    return rows


def comparison_checks(rows: list[StrategyRow]) -> dict[str, bool]:
    """The qualitative claims the strategy guide makes."""
    parity_walkers = [
        row
        for row in rows
        if row.app_count in PARITY_SIZES and row.label in ("mcts", "annealing")
    ]
    anytime = {
        row.label: row for row in rows if row.app_count not in PARITY_SIZES
    }
    walkers_at_scale = [anytime["mcts"], anytime["annealing"]]
    return {
        # >= 90% of the self-aware A*'s gain wherever both complete.
        "walkers_reach_astar_parity": all(
            row.parity is not None and row.parity >= PARITY_FLOOR
            for row in parity_walkers
        ),
        # The exact search cannot finish the 20-host scenario in the
        # budget — the watchdog aborts it mid-search.
        "naive_astar_hits_deadline": anytime["naive_astar"].deadline_aborted,
        # The walkers return full plans inside the same budget ...
        "walkers_complete_under_deadline": all(
            not row.deadline_aborted for row in walkers_at_scale
        ),
        # ... that beat the pruned A*'s plan outright.
        "walkers_beat_pruned_astar_at_scale": all(
            row.predicted_utility > anytime["astar"].predicted_utility
            for row in walkers_at_scale
        ),
        # Anytime invariant: nobody returns worse than doing nothing.
        "all_plans_beat_null": all(
            row.predicted_utility >= row.null_utility - 1e-9 for row in rows
        ),
    }
