"""Pluggable search strategies over the configuration graph (DESIGN.md §14).

The adaptation search is a maximization of Eq. 3 over action sequences;
:class:`~repro.core.search.AdaptationSearch.search` dispatches it to one
of three interchangeable backends:

- ``"astar"`` — the paper's exact Naive / Self-Aware A* (Algorithm 1),
  run unchanged by :class:`AStarStrategy`.  Deterministic, proves
  optimality on terminal pops, but its frontier grows combinatorially
  with system size.
- ``"mcts"`` — :class:`MctsStrategy`, a seeded UCB1-guided Monte-Carlo
  tree search.  Each simulation selects a tree path by upper confidence
  bound, expands one child, runs a short guided rollout, and backs the
  normalized Eq. 3 reward up the path.
- ``"annealing"`` — :class:`AnnealingStrategy`, a seeded simulated-
  annealing walk: propose a near-ideal action, accept improvements
  always and regressions with probability ``exp(Δ/T)`` under a
  geometric cooling schedule, teleporting back to the best incumbent
  after a run of rejections.

The stochastic backends share one contract (test-enforced by
``tests/test_strategies.py``):

- **Deterministic under a fixed seed** — all randomness flows from one
  private ``random.Random(settings.strategy_seed)``; the wall clock is
  consulted only by the deadline watchdog.
- **Anytime** — a feasible incumbent (at worst the explicit null plan)
  exists from the first instant, so aborting at any point — budget
  exhaustion, the PR 5 deadline watchdog, controller degradation —
  returns a valid, executable plan.
- **Watchdog-composed** — ``settings.deadline_seconds`` is checked
  cooperatively once per iteration/rollout step, so the wall-time
  overshoot is bounded by a single step; deadline-aborted outcomes set
  ``deadline_aborted`` and thereby feed the controller's degradation
  ladder exactly like an aborted A* (PR 3/PR 5).

Both walkers navigate the same action-enumeration space as the A*
(``AdaptationSearch._enumerate_actions`` with ideal-cap highways, scope
filtering included) and price actions with the same Cost Manager
transient model, so their plans are executable by the same Cluster and
comparable utility-for-utility with the exact search.  They also score
children the way the A* does: every child's steady estimate re-solves
only the tiers its action touched, chained off the parent's solver
state (``UtilityEstimator.estimate_child``), and every child's cost
comes through the A*'s prediction memo (``_CostMemo``).
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.actions import ActionError, AdaptationAction, NullAction
from repro.core.config import Configuration
from repro.core.planner import plan_transition
from repro.faults.injector import InjectedSolverFault
from repro.core.search import (
    STRATEGY_KINDS,
    SearchOutcome,
    SearchSettings,
    _CostMemo,
    _SearchBasis,
    _VertexState,
)
from repro.telemetry import phases as _phases
from repro.telemetry import runtime as _telemetry
from repro.telemetry.provenance import ProvenanceCollector, plan_breakdown

#: MCTS rollout policy: score this many head entries of the distance-
#: ranked proposal list per step, follow the best with this
#: probability (else a uniform sibling).  Constants, not settings —
#: they shape rollout quality, not the strategy contract.
_ROLLOUT_WIDTH = 4
_ROLLOUT_GREED = 0.75

__all__ = [
    "SearchStrategy",
    "AStarStrategy",
    "MctsStrategy",
    "AnnealingStrategy",
    "resolve_strategy",
    "resolve_strategy_name",
]


def resolve_strategy_name(value: Optional[str]) -> str:
    """The effective strategy name for a settings value.

    ``None`` consults the ``MISTRAL_SEARCH_STRATEGY`` environment
    variable (unset/empty → ``"astar"``).  Unknown names raise — a
    typo'd operator override must fail loudly, not silently fall back
    to a different search.
    """
    if value is None:
        raw = os.environ.get("MISTRAL_SEARCH_STRATEGY", "")
        value = raw.strip().lower()
        if not value:
            return "astar"
    if value not in STRATEGY_KINDS:
        raise ValueError(
            f"unknown search strategy {value!r}: expected one of "
            f"{STRATEGY_KINDS} (check MISTRAL_SEARCH_STRATEGY or "
            "SearchSettings.strategy)"
        )
    return value


class SearchStrategy:
    """Interface of a search backend (DESIGN.md §14).

    A strategy is a stateless singleton: all per-run state lives in the
    ``run`` invocation, so one instance serves every search.  ``run``
    must honour the :class:`~repro.core.search.SearchOutcome`
    contract — a feasible
    plan or the explicit null plan, ``deadline_aborted`` when the
    watchdog cut it short — and must consume the wall clock only for
    watchdog checks so fixed-seed runs stay deterministic.
    """

    #: Registry key; also stamped on ``SearchOutcome.strategy``.
    name: str = "abstract"

    def run(
        self,
        search,
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        *,
        expected_utility: Optional[float] = None,
        expected_rate: Optional[float] = None,
        settings_override: Optional[SearchSettings] = None,
    ) -> SearchOutcome:
        raise NotImplementedError


class AStarStrategy(SearchStrategy):
    """The exact A* loop, unchanged (bit-identical outcomes)."""

    name = "astar"

    def run(
        self,
        search,
        current,
        workloads,
        control_window,
        *,
        expected_utility=None,
        expected_rate=None,
        settings_override=None,
    ) -> SearchOutcome:
        return search._astar_search(
            current,
            workloads,
            control_window,
            expected_utility,
            expected_rate,
            settings_override,
        )


@dataclass(slots=True)
class _WalkNode:
    """One position of a stochastic walker: a configuration plus the
    Eq. 3 accrual of the action chain that reached it (the same
    quantities an A* vertex carries, minus the frontier bookkeeping)."""

    configuration: Configuration
    state: _VertexState
    actions: tuple[AdaptationAction, ...]
    accrued: float
    elapsed: float
    parent_configuration: Optional[Configuration] = None
    changed_vms: frozenset = frozenset()
    is_candidate: bool = False
    #: Memoized steady estimate (one estimator call per node).
    steady_cache: Optional[object] = None


class _WalkContext:
    """Shared per-run state of the stochastic walkers.

    Builds the same evaluation scaffolding the A* preamble does — the
    Perf-Pwr ideal (scope-projected for 1st-level controllers), the
    distance basis, the incremental :class:`_SearchBasis`, the primed
    estimator — and exposes child construction, Eq. 3 valuation,
    incumbent tracking and outcome assembly on top of it.  Decision
    time uses the same virtual accounting as the A* (per-step and
    per-child charges), so durations are deterministic and platform-
    independent.
    """

    def __init__(
        self,
        search,
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        settings: SearchSettings,
    ) -> None:
        self.wall_start = time.perf_counter()
        self.search = search
        self.settings = settings
        self.workloads = workloads
        self.wkey = search.estimator.workload_key(workloads)
        #: The A*'s cost-prediction memo, one per walk.
        self.costs = _CostMemo(search, workloads)
        ideal = search.perf_pwr.optimize(workloads)
        if search.scope_hosts is not None:
            ideal = search._project_ideal(current, ideal, workloads)
        self.ideal = ideal
        self.ideal_rate = ideal.ideal_rate
        self.window = max(control_window, 0.0)
        self.current = current
        self.current_estimate = search.estimator.estimate(
            current, workloads, key=self.wkey
        )
        self.current_rate = self.current_estimate.total_rate
        self.deadline = settings.deadline_seconds
        self.deadline_hit = False
        #: Chaos-mode fault injector (``search.fault_injector``):
        #: solver-exception and strategy-stall injection points.
        self.injector = getattr(search, "fault_injector", None)
        self.rng = random.Random(settings.strategy_seed)
        self.iterations = 0
        self.evaluations = 0
        self.candidate_offers = 0
        self.virtual_seconds = 0.0
        self.collector = (
            ProvenanceCollector()
            if _telemetry.enabled and _telemetry.provenance
            else None
        )
        self.profile = _phases.PhaseProfile() if _telemetry.enabled else None
        if self.profile is not None:
            _phases.set_profile(self.profile)
        # The walkers always evaluate incrementally — the delta path is
        # bit-compatible with the full path (PR 1), so this is a
        # throughput choice, not a semantic one.
        ideal_weights, ideal_caps = search._ideal_distance_basis(ideal)
        self.ideal_caps = ideal_caps
        durations = search._togo_durations(workloads)
        search.estimator.prime(current, workloads, key=self.wkey)
        self.basis = _SearchBasis(
            search.catalog,
            search.limits,
            ideal.configuration,
            ideal_weights,
            ideal_caps,
            durations,
        )
        self.rate_gap = settings.togo_discount * max(
            self.ideal_rate - self.current_rate,
            0.1 * abs(self.ideal_rate),
            1e-9,
        )
        root_state = self.basis.full_state(current)
        self.root = _WalkNode(
            configuration=current,
            state=root_state,
            actions=(),
            accrued=0.0,
            elapsed=0.0,
            is_candidate=self.basis.is_candidate(root_state),
        )
        self.root.steady_cache = self.current_estimate
        #: Incumbent: starts at the explicit null plan, so any abort
        #: returns a valid decision (the anytime guarantee).
        self.null_value = self.window * self.current_rate
        self.best_value = self.null_value
        self.best_actions: tuple = ()
        self.best_configuration = current
        #: Reward normalization: one unit is the ideal-vs-null utility
        #: gap over the window (floored so flat landscapes still grade).
        self.scale = max(
            self.window * self.ideal_rate - self.null_value,
            0.05 * abs(self.window * self.ideal_rate),
            1e-9,
        )
        #: Ranked-action proposals per visited configuration (ranking
        #: is deterministic, so caching cannot change decisions).
        self._ranked: dict[Configuration, list] = {}
        #: Seed chains recorded by :meth:`seed_plans` (polish starts).
        self.seed_chains: list[list[_WalkNode]] = []
        #: Useful plans are at most a few actions longer than the
        #: planner's direct route to the ideal: past the window's end
        #: accrual freezes, so deeper wandering only pads the plan.
        #: ``seed_plans`` tightens this to the longest seed plan + 3.
        self.depth_limit = min(settings.max_plan_actions, 12)

    # -- clock ---------------------------------------------------------

    def out_of_time(self) -> bool:
        """Cooperative watchdog check (one clock read; no deadline →
        no reads at all, keeping fixed-seed runs deterministic)."""
        if self.deadline is None or self.deadline_hit:
            return self.deadline_hit
        if time.perf_counter() - self.wall_start >= self.deadline:
            self.deadline_hit = True
        return self.deadline_hit

    def maybe_stall(self) -> None:
        """Chaos injection: sleep one injected stall before this
        iteration.  Placed right before the watchdog check so a stall
        long enough to blow the deadline aborts the walker on the very
        next ``out_of_time`` — the incumbent survives, the outcome is
        stamped ``deadline_aborted``, and the ladder steps down."""
        injector = self.injector
        if injector is None:
            return
        seconds = injector.strategy_stall()
        if seconds > 0.0:
            if _telemetry.enabled:
                _telemetry.tracer.event(
                    "fault.strategy.stall", seconds=seconds
                )
            time.sleep(seconds)

    # -- evaluation ----------------------------------------------------

    def steady(self, node: _WalkNode):
        """Steady estimate of a node, memoized per node.  A child
        re-solves only its action's tiers off the parent's solver state,
        which :meth:`make_child` installed by evaluating the parent
        first; a parent whose state was evicted falls back to one full
        solve.

        Chaos mode may raise :class:`InjectedSolverFault` here — the
        walkers let it propagate, and the search's dispatcher answers
        with the exact-A* fallback (walker failure degradation).
        """
        estimate = node.steady_cache
        if estimate is None:
            injector = self.injector
            if injector is not None and injector.solver_exception():
                if _telemetry.enabled:
                    _telemetry.tracer.event("fault.solver.exception")
                raise InjectedSolverFault(
                    "injected LQN solver failure mid-evaluation"
                )
            if node.parent_configuration is not None:
                estimate = self.search.estimator.estimate_child(
                    node.parent_configuration,
                    node.configuration,
                    node.changed_vms,
                    self.workloads,
                    key=self.wkey,
                )
            else:
                estimate = self.search.estimator.estimate(
                    node.configuration, self.workloads, key=self.wkey
                )
            node.steady_cache = estimate
        return estimate

    def bound(self, node: _WalkNode) -> float:
        """Admissible Eq. 3 bound (ideal rate over the remainder)."""
        remaining = max(0.0, self.window - node.elapsed)
        return remaining * self.ideal_rate + node.accrued

    def candidate_value(self, node: _WalkNode) -> float:
        """True Eq. 3 value of committing to this candidate."""
        remaining = max(0.0, self.window - node.elapsed)
        return remaining * self.steady(node).total_rate + node.accrued

    def walk_score(self, node: _WalkNode) -> float:
        """Local navigation score: the *true* Eq. 3 value of stopping
        here (steady-solved, not the admissible bound — the bound
        rewards any distance-reducing edit no matter how bad its real
        rate, which sends a local walker straight downhill), deflated
        for infeasible intermediates by the A*'s guidance potential
        (they still owe adaptation work before they can be committed).
        The estimate rides the delta path (see :meth:`steady`)."""
        value = self.candidate_value(node)
        if node.is_candidate:
            return value
        seconds = self.basis.togo_seconds(node.state, node.configuration)
        return value - (
            self.settings.guidance_weight * seconds * self.rate_gap
        )

    def offer(self, node: _WalkNode) -> float:
        """Evaluate a candidate node and raise the incumbent if it
        wins.  Every offer is also a provenance candidate note, so
        ``decision.provenance`` records the rejected rivals."""
        value = self.candidate_value(node)
        self.candidate_offers += 1
        if self.collector is not None:
            self.collector.note_candidate(value, node.actions)
        if value > self.best_value:
            self.best_value = value
            self.best_actions = node.actions
            self.best_configuration = node.configuration
        return value

    # -- moves ---------------------------------------------------------

    def ranked_actions(
        self, node: _WalkNode, limit: Optional[int] = 0
    ) -> list:
        """The applicable actions from a node, closest-to-ideal first,
        truncated to ``limit`` placement entries (``0`` → the
        ``walker_branch_limit`` setting, ``None`` → untruncated) — the
        same enumeration and distance ranking the self-aware prune
        uses, so the walkers inherit scope filtering and ideal-cap
        highways for free.  Entries are ``(action, delta)`` tuples;
        host power toggles rank after the placement head regardless of
        ``limit`` (their child distance ties with the parent's, yet
        they are exactly the moves that finish a consolidation)."""
        cached = self._ranked.get(node.configuration)
        if cached is None:
            search = self.search
            with _phases.phase("enumerate"):
                possible = search._enumerate_actions(
                    node.configuration, self.ideal_caps
                )
            entries = []
            toggles = []
            for order, action in enumerate(possible):
                if isinstance(action, NullAction):
                    continue  # walkers offer candidates directly
                try:
                    delta = action.placement_delta(
                        node.configuration, search.catalog, search.limits
                    )
                except ActionError:
                    continue
                if not delta:
                    toggles.append((action, delta))
                    continue
                entries.append(
                    (
                        self.basis.child_distance(node.state, delta),
                        order,
                        action,
                        delta,
                    )
                )
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            self.virtual_seconds += (len(entries) + len(toggles)) * (
                self.settings.per_child_apply_seconds
            )
            cached = (
                [(action, delta) for _, _, action, delta in entries],
                toggles,
            )
            self._ranked[node.configuration] = cached
        placements, toggles = cached
        if limit == 0:
            limit = self.settings.walker_branch_limit
        if limit is not None:
            placements = placements[:limit]
        return placements + toggles

    def make_child(
        self, node: _WalkNode, action: AdaptationAction, delta: tuple
    ) -> Optional[_WalkNode]:
        """Apply one action: the same child arithmetic as the A*'s
        ``build_child`` (delta-derived configuration and state, Cost
        Manager transients, window-truncated rate-capped accrual)."""
        search = self.search
        if len(delta) == 1:
            ((vm_id, placement),) = delta
            configuration = (
                node.configuration.remove(vm_id)
                if placement is None
                else node.configuration.replace(vm_id, placement)
            )
        else:
            try:
                configuration = action.apply(
                    node.configuration, search.catalog, search.limits
                )
            except ActionError:
                return None
        state = self.basis.child_state(node.configuration, node.state, delta)
        predicted = self.costs.predict(action, node.configuration)
        perf_rate, power_rate = search.estimator.transient_rates(
            self.steady(node),
            self.workloads,
            predicted.rt_delta,
            predicted.power_delta_watts,
        )
        effective = min(
            predicted.duration, max(0.0, self.window - node.elapsed)
        )
        transient_rate = min(perf_rate + power_rate, self.ideal_rate)
        child = _WalkNode(
            configuration=configuration,
            state=state,
            actions=node.actions + (action,),
            accrued=node.accrued + effective * transient_rate,
            elapsed=node.elapsed + predicted.duration,
            parent_configuration=node.configuration,
            changed_vms=frozenset(vm_id for vm_id, _ in delta),
            is_candidate=self.basis.is_candidate(state),
        )
        self.evaluations += 1
        self.virtual_seconds += self.settings.per_child_eval_seconds
        return child

    def seed_plans(self) -> list:
        """Install the direct transition plans to the ideal (and its
        Perf-Pwr alternatives) as starting incumbents — the same
        seeding the A* uses, so a stochastic walker starts from the
        planner's best direct plan and can only improve on it.

        Returns the seed chains (one ``[_WalkNode, ...]`` per target,
        root excluded) so a strategy can plant them in its own
        structures — the MCTS tree skeleton, an annealing anchor."""
        chains: list[list[_WalkNode]] = []
        if not self.settings.seed_with_plan:
            return chains
        search = self.search
        targets = [self.ideal.configuration] + [
            alternative.configuration
            for alternative in self.ideal.alternatives
            if alternative.configuration != self.ideal.configuration
        ]
        longest = 0
        with _phases.phase("score"):
            for target in targets:
                node = self.root
                chain: list[_WalkNode] = []
                for action in plan_transition(
                    self.current, target, search.catalog, search.limits
                ):
                    if action.kind not in self.settings.allowed_kinds:
                        break  # keep the valid prefix only
                    try:
                        delta = action.placement_delta(
                            node.configuration, search.catalog, search.limits
                        )
                    except ActionError:
                        break
                    node = self.make_child(node, action, delta)
                    if node is None:
                        break
                    chain.append(node)
                    if node.is_candidate:
                        self.offer(node)
                longest = max(longest, len(node.actions))
                if chain:
                    chains.append(chain)
        self.depth_limit = min(
            self.settings.max_plan_actions, max(self.depth_limit, longest + 3)
        )
        self.seed_chains = chains
        return chains

    def replay(self, actions) -> Optional[_WalkNode]:
        """Re-walk an action sequence from the root, offering every
        candidate prefix met on the way; ``None`` if any step fails."""
        node = self.root
        search = self.search
        for action in actions:
            try:
                delta = action.placement_delta(
                    node.configuration, search.catalog, search.limits
                )
            except ActionError:
                return None
            node = self.make_child(node, action, delta)
            if node is None:
                return None
            if node.is_candidate:
                self.offer(node)
        return node

    def sweep(self, max_len: int = 3, beam: int = 6) -> int:
        """Deterministic short-plan sweep over the seed chains' action
        pool: replay every single action, then extend the ``beam`` best
        plans with every pool action, up to ``max_len`` steps.

        The exact search's winners are frequently *short* reorderings
        of the planner's direct chain (run the one high-gain action
        first, drop the rest) — plans a hill-climb from the full chain
        cannot reach monotonically.  Every replayed candidate feeds the
        incumbent through :meth:`offer`.  Returns the replay count."""
        pool: list[AdaptationAction] = []
        seen: set[AdaptationAction] = set()
        for chain in self.seed_chains:
            for node in chain:
                action = node.actions[-1]
                if action not in seen:
                    seen.add(action)
                    pool.append(action)
        if not pool:
            return 0
        replays = 0
        tier: list[tuple[float, tuple]] = [(0.0, ())]
        with _phases.phase("score"):
            for _ in range(max_len):
                scored: list[tuple[float, tuple]] = []
                for _, prefix in tier:
                    for action in pool:
                        if self.out_of_time():
                            return replays
                        if action in prefix:
                            continue
                        plan = prefix + (action,)
                        node = self.replay(plan)
                        replays += 1
                        if node is None:
                            continue
                        scored.append((self.walk_score(node), plan))
                if not scored:
                    break
                scored.sort(key=lambda pair: (-pair[0], repr(pair[1][-1])))
                tier = scored[:beam]
        return replays

    def beam(self, width: int = 8) -> int:
        """Deterministic dual-criterion beam over the full action
        enumeration: each depth tier keeps the union of the ``width``
        best children by :meth:`walk_score` (true steady-solved value —
        exploits known-good basins) and the ``width`` best by
        :meth:`bound` (the A*'s optimistic Eq. 3 priority — keeps
        transiently-expensive prefixes alive that true value would
        evict before they pay off).  Either signal alone fails: true
        value is pessimistic about deep plans' early actions, the bound
        rewards distance-reducing edits regardless of achieved rate.
        Every candidate met feeds the incumbent.  Returns the number of
        tiers expanded."""
        tier = [self.root]
        depths = 0
        stale = 0
        tier_mark = -math.inf
        with _phases.phase("score"):
            for _ in range(self.depth_limit):
                mark = self.best_value
                children: list[_WalkNode] = []
                for node in tier:
                    if self.out_of_time():
                        return depths
                    for action, delta in self.ranked_actions(node, None):
                        child = self.make_child(node, action, delta)
                        if child is not None:
                            children.append(child)
                if not children:
                    break
                # Transpositions of the same edits meet again in the
                # same configuration; keep only the best-accrued route
                # to each (the same frontier dedup the A* does).
                best_route: dict = {}
                for child in children:
                    rival = best_route.get(child.configuration)
                    if rival is None or self.bound(child) > self.bound(rival):
                        best_route[child.configuration] = child
                children = [
                    child
                    for child in children
                    if best_route[child.configuration] is child
                ]
                for child in children:
                    if child.is_candidate:
                        self.offer(child)
                by_value = sorted(
                    range(len(children)),
                    key=lambda i: (-self.walk_score(children[i]), i),
                )
                by_bound = sorted(
                    range(len(children)),
                    key=lambda i: (-self.bound(children[i]), i),
                )
                keep: list[int] = []
                for index in by_value[:width] + by_bound[:width]:
                    if index not in keep:
                        keep.append(index)
                tier = [children[index] for index in keep]
                depths += 1
                # Tier depth past the best plan's length is pure cost:
                # stop once three consecutive tiers neither raised the
                # incumbent nor pushed the frontier's best true score
                # higher (a pre-seeded incumbent would otherwise make
                # every shallow tier look stale and cut the beam off
                # before deep plans can pay their transients back).
                tier_best = max(
                    self.walk_score(child) for child in tier
                )
                progressed = (
                    self.best_value > mark or tier_best > tier_mark
                )
                tier_mark = max(tier_mark, tier_best)
                stale = 0 if progressed else stale + 1
                if stale >= 3:
                    break
        return depths

    def _climb(self, base: tuple) -> None:
        """Hill-climb one plan over adjacent transpositions and single
        deletions, replayed with the exact accrual arithmetic.  Tracks
        its *own* local best (every replayed candidate still feeds the
        global incumbent through :meth:`offer`), so climbing a worse
        start cannot be derailed by the incumbent's distant basin."""
        best = base
        best_value = -math.inf
        node = self.replay(base)
        if node is not None and node.is_candidate:
            best_value = self.candidate_value(node)
        for _ in range(6):
            if self.out_of_time() or not best:
                return
            variants = [
                best[:i] + (best[i + 1], best[i]) + best[i + 2 :]
                for i in range(len(best) - 1)
            ] + [best[:i] + best[i + 1 :] for i in range(len(best))]
            improved = False
            for variant in variants:
                if self.out_of_time():
                    return
                node = self.replay(variant)
                if node is None or not node.is_candidate:
                    continue
                value = self.candidate_value(node)
                if value > best_value:
                    best, best_value, improved = variant, value, True
            if not improved:
                return

    def polish(self) -> int:
        """Deterministic local refinement: hill-climb the incumbent
        plan *and* each seed chain's full plan.

        Transient cost depends on action *order* (Eq. 3 accrues each
        action's rate over its duration), so the planner's direct chain
        is usually improvable by running cheap high-gain actions first
        and dropping steps whose rate never pays back — exactly the
        reorderings the A* finds by search.  Candidate prefixes are
        offered during every replay, which subsumes plan truncation.
        Returns the number of starts climbed."""
        starts = []
        for chain in self.seed_chains:
            actions = chain[-1].actions
            if actions and actions not in starts:
                starts.append(actions)
        if self.best_actions and self.best_actions not in starts:
            starts.append(self.best_actions)
        self.beam()
        self.sweep()
        if self.best_actions and self.best_actions not in starts:
            starts.append(self.best_actions)
        with _phases.phase("score"):
            for base in starts:
                if self.out_of_time():
                    break
                self._climb(base)
            # Climbs can improve the *global* incumbent through offered
            # prefixes without their local best following it; re-climb
            # the incumbent until it stops moving so gains compound
            # across starts.
            for _ in range(4):
                if self.out_of_time():
                    break
                incumbent = self.best_actions
                if not incumbent:
                    break
                self._climb(incumbent)
                if self.best_actions == incumbent:
                    break
        return len(starts)

    # -- outcome -------------------------------------------------------

    def finish(
        self,
        strategy_name: str,
        stats: Optional[dict] = None,
        *,
        optimal: bool = False,
        early_return: bool = False,
    ) -> SearchOutcome:
        """Assemble the outcome and emit the one telemetry record per
        search — mirroring the A*'s ``complete`` funnel (``search.run``
        event, watchdog/pruning counters, phase profile, decision
        provenance) plus the per-strategy counters."""
        if self.profile is not None:
            _phases.set_profile(None)
        actions = tuple(
            action
            for action in self.best_actions
            if not isinstance(action, NullAction)
        )
        decision_seconds = max(
            self.settings.per_vertex_seconds, self.virtual_seconds
        )
        outcome = SearchOutcome(
            actions=actions,
            final_configuration=self.best_configuration,
            predicted_utility=self.best_value,
            ideal=self.ideal,
            expansions=self.iterations,
            decision_seconds=decision_seconds,
            wall_seconds=time.perf_counter() - self.wall_start,
            pruning_activated=False,
            optimal=optimal,
            deadline_aborted=self.deadline_hit,
        )
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter("search.runs").inc()
            if self.deadline_hit:
                registry.counter("watchdog.deadline_aborts").inc()
                _telemetry.tracer.event(
                    "watchdog.deadline_abort",
                    deadline=self.deadline,
                    wall_seconds=outcome.wall_seconds,
                    expansions=outcome.expansions,
                    actions=len(outcome.actions),
                )
            registry.counter("search.expansions").inc(outcome.expansions)
            registry.counter("search.children_generated").inc(
                self.evaluations
            )
            registry.counter("search.candidates").inc(self.candidate_offers)
            if early_return:
                registry.counter("search.early_returns").inc()
            prefix = f"search.strategy.{strategy_name}"
            registry.counter(f"{prefix}.iterations").inc(self.iterations)
            registry.counter(f"{prefix}.evaluations").inc(self.evaluations)
            for key, value in (stats or {}).items():
                if isinstance(value, int) and value > 0:
                    registry.counter(f"{prefix}.{key}").inc(value)
            registry.gauge("search.heuristic_gap").set(
                self.window * self.ideal_rate - outcome.predicted_utility
            )
            _telemetry.tracer.event(
                "search.run",
                dur=outcome.wall_seconds,
                self_aware=self.settings.self_aware,
                incremental=True,
                expansions=outcome.expansions,
                children_generated=self.evaluations,
                children_pruned=0,
                candidates=self.candidate_offers,
                pruning_activated=False,
                decision_seconds=outcome.decision_seconds,
                predicted_utility=outcome.predicted_utility,
                actions=len(outcome.actions),
                optimal=outcome.optimal,
                early_return=early_return,
            )
            if self.profile is not None and self.profile:
                _telemetry.tracer.event(
                    "profile.phases",
                    phases=self.profile.snapshot(),
                    wall_seconds=outcome.wall_seconds,
                    expansions=outcome.expansions,
                )
            if self.collector is not None:
                if self.deadline_hit:
                    self.collector.note_deadline(0, None)
                try:
                    totals, per_action = plan_breakdown(
                        self.search.estimator,
                        self.search.catalog,
                        self.search.limits,
                        self.search.cost_manager,
                        self.workloads,
                        self.wkey,
                        self.window,
                        self.ideal_rate,
                        self.current,
                        self.best_actions,
                    )
                except Exception:
                    totals = {
                        "steady": outcome.predicted_utility,
                        "transient": 0.0,
                        "total": outcome.predicted_utility,
                    }
                    per_action = []
                utility = {
                    **totals,
                    "predicted_utility": outcome.predicted_utility,
                    "baseline_utility": self.null_value,
                    "delta_vs_current": (
                        outcome.predicted_utility - self.null_value
                    ),
                    "ideal_bound": self.window * self.ideal_rate,
                    "heuristic_gap": (
                        self.window * self.ideal_rate
                        - outcome.predicted_utility
                    ),
                }
                outcome.provenance = self.collector.build(
                    utility=utility,
                    chosen_actions=tuple(
                        type(action).__name__ for action in actions
                    ),
                    predicted_utility=outcome.predicted_utility,
                    search={
                        "expansions": outcome.expansions,
                        "children_generated": self.evaluations,
                        "children_pruned": 0,
                        "candidates": self.candidate_offers,
                        "pruning_activated": False,
                        "optimal": outcome.optimal,
                        "early_return": early_return,
                        "deadline_aborted": self.deadline_hit,
                        "self_aware": self.settings.self_aware,
                        "incremental": True,
                        "wall_seconds": outcome.wall_seconds,
                        "decision_seconds": outcome.decision_seconds,
                        "strategy": strategy_name,
                        **{
                            key: value
                            for key, value in (stats or {}).items()
                        },
                    },
                    per_action=per_action,
                )
        return outcome


@dataclass(slots=True)
class _TreeNode:
    """One MCTS tree node (statistics over a :class:`_WalkNode`)."""

    node: _WalkNode
    #: ``None`` until first visited; then the not-yet-expanded child
    #: nodes as ``(walk_score, _WalkNode)``, best first — built by one
    #: A*-style full expansion round (all proposals materialized and
    #: delta-evaluated, candidates offered to the incumbent).
    untried: Optional[list] = None
    children: list = field(default_factory=list)
    visits: int = 0
    value_sum: float = 0.0


class MctsStrategy(SearchStrategy):
    """Seeded UCB1-guided Monte-Carlo tree search (anytime)."""

    name = "mcts"

    def run(
        self,
        search,
        current,
        workloads,
        control_window,
        *,
        expected_utility=None,
        expected_rate=None,
        settings_override=None,
    ) -> SearchOutcome:
        settings = (
            search.settings if settings_override is None else settings_override
        )
        ctx = _WalkContext(search, current, workloads, control_window, settings)
        if ctx.ideal.configuration == current:
            return ctx.finish(self.name, optimal=True, early_return=True)
        exploration = settings.mcts_exploration
        rollout_depth = settings.mcts_rollout_depth
        rng = ctx.rng
        root = _TreeNode(ctx.root)
        rollout_steps = 0
        tree_nodes = 1
        # Plant the planner's direct seed chains as tree skeletons:
        # the search starts with the A*'s seed plans in the tree and
        # spends its budget refining around them instead of
        # rediscovering the route to the ideal from scratch.
        for chain in ctx.seed_plans():
            parent = root
            for walk_node in chain:
                child_tree = _TreeNode(walk_node)
                parent.children.append(child_tree)
                tree_nodes += 1
                parent = child_tree
        max_depth = ctx.depth_limit

        def proposals(tree_node: _TreeNode) -> list:
            """Lazy full expansion: on a node's first visit, build and
            evaluate *all* its proposal children (one A* expansion
            round), offer the candidates, and keep the rest sorted by
            walk score as the untried pool."""
            if tree_node.untried is None:
                if len(tree_node.node.actions) >= max_depth:
                    tree_node.untried = []
                else:
                    scored = []
                    with _phases.phase("score"):
                        for action, delta in ctx.ranked_actions(
                            tree_node.node
                        ):
                            child = ctx.make_child(
                                tree_node.node, action, delta
                            )
                            if child is None:
                                continue
                            if child.is_candidate:
                                ctx.offer(child)
                            scored.append((ctx.walk_score(child), child))
                    scored.sort(key=lambda pair: pair[0], reverse=True)
                    tree_node.untried = scored
            return tree_node.untried

        for _ in range(settings.mcts_iterations):
            ctx.maybe_stall()
            if ctx.out_of_time():
                break
            ctx.iterations += 1
            ctx.virtual_seconds += settings.per_vertex_seconds
            # Selection with progressive widening: a node may hold at
            # most ~sqrt(visits) expanded children, so the budget deepens
            # along strong lines (the planted seed chains included)
            # instead of fanning the root out breadth-first.
            tree_node = root
            path = [root]
            expand_here = False
            while True:
                untried = proposals(tree_node)
                width = 1 + int(math.sqrt(tree_node.visits))
                if untried and len(tree_node.children) < width:
                    expand_here = True
                    break
                if not tree_node.children:
                    break  # exhausted leaf
                log_n = math.log(tree_node.visits + 1.0)
                best = None
                best_score = -math.inf
                for child in tree_node.children:
                    if child.visits:
                        score = (
                            child.value_sum / child.visits
                            + exploration * math.sqrt(log_n / child.visits)
                        )
                    else:
                        score = math.inf
                    if score > best_score:
                        best_score = score
                        best = child
                tree_node = best
                path.append(tree_node)
            # Expansion: promote one untried child to the tree —
            # best-first with a seeded jitter over the score-sorted
            # head, so strong siblings all get explored without the
            # pool degenerating to a fixed order.
            cursor = tree_node.node
            if expand_here:
                untried = proposals(tree_node)
                if untried:
                    _, child_node = untried.pop(
                        rng.randrange(min(3, len(untried)))
                        if rng.random() < 0.5
                        else rng.randrange(len(untried))
                    )
                    child_tree = _TreeNode(child_node)
                    tree_node.children.append(child_tree)
                    tree_nodes += 1
                    path.append(child_tree)
                    cursor = child_node
            # Rollout: a short utility-guided ε-greedy walk below the
            # new node — score the head of the distance-ranked proposal
            # list with the delta-solved walk score, usually follow the
            # best, sometimes a random sibling.  Every candidate met on
            # the way is a potential incumbent.
            pending = [cursor] if cursor.is_candidate else []
            with _phases.phase("rollout"):
                for _ in range(rollout_depth):
                    if ctx.out_of_time():
                        break
                    if len(cursor.actions) >= max_depth:
                        break
                    ranked = ctx.ranked_actions(cursor)
                    if not ranked:
                        break
                    proposals_now = ranked[:_ROLLOUT_WIDTH] + [
                        pair for pair in ranked[_ROLLOUT_WIDTH:] if not pair[1]
                    ]
                    children = []
                    for action, delta in proposals_now:
                        child = ctx.make_child(cursor, action, delta)
                        if child is None:
                            continue
                        if child.is_candidate:
                            pending.append(child)
                        children.append(child)
                    if not children:
                        break
                    scored = [
                        (ctx.walk_score(child), child) for child in children
                    ]
                    rollout_steps += 1
                    if rng.random() < _ROLLOUT_GREED:
                        cursor = max(scored, key=lambda pair: pair[0])[1]
                    else:
                        cursor = scored[rng.randrange(len(scored))][1]
            # Offer the rollout's candidates and back the best
            # normalized reward up the selection path.
            best_seen = -math.inf
            if pending:
                with _phases.phase("score"):
                    for node in pending:
                        value = ctx.offer(node)
                        if value > best_seen:
                            best_seen = value
            if best_seen == -math.inf:
                best_seen = ctx.walk_score(cursor)
            reward = (best_seen - ctx.null_value) / ctx.scale
            if reward > 1.0:
                reward = 1.0
            elif reward < -1.0:
                reward = -1.0
            for visited in path:
                visited.visits += 1
                visited.value_sum += reward
        polish_passes = ctx.polish()
        return ctx.finish(
            self.name,
            {
                "rollout_steps": rollout_steps,
                "tree_nodes": tree_nodes,
                "polish_passes": polish_passes,
            },
        )


class AnnealingStrategy(SearchStrategy):
    """Seeded simulated-annealing walk over action chains (anytime)."""

    name = "annealing"

    def run(
        self,
        search,
        current,
        workloads,
        control_window,
        *,
        expected_utility=None,
        expected_rate=None,
        settings_override=None,
    ) -> SearchOutcome:
        settings = (
            search.settings if settings_override is None else settings_override
        )
        ctx = _WalkContext(search, current, workloads, control_window, settings)
        if ctx.ideal.configuration == current:
            return ctx.finish(self.name, optimal=True, early_return=True)
        chains = ctx.seed_plans()
        rng = ctx.rng
        max_depth = ctx.depth_limit
        temperature = settings.annealing_initial_temperature
        cooling = settings.annealing_cooling
        restart_after = settings.annealing_restart_interval
        # The walk compares positions on one consistent scale — the
        # walk score (true Eq. 3 value, minus the A*'s guidance
        # potential for infeasible intermediates); candidates are
        # offered to the incumbent as a side effect, with their exact
        # delta-solved steady values.
        #
        # Restart anchor: the best-scoring node seen so far — seeded
        # with the planner's direct chains, so the walk starts in the
        # neighborhood of the direct route to the ideal.
        best_node = ctx.root
        best_node_score = ctx.walk_score(ctx.root)
        for chain in chains:
            for node in chain:
                score = ctx.walk_score(node)
                if score > best_node_score:
                    best_node, best_node_score = node, score
        cursor, cursor_score = best_node, best_node_score
        accepted = 0
        restarts = 0
        rejects = 0
        for _ in range(settings.annealing_iterations):
            ctx.maybe_stall()
            if ctx.out_of_time():
                break
            ctx.iterations += 1
            ctx.virtual_seconds += settings.per_vertex_seconds
            if len(cursor.actions) >= max_depth:
                cursor, cursor_score = best_node, best_node_score
                restarts += 1
                rejects = 0
            ranked = ctx.ranked_actions(cursor)
            if not ranked:
                if cursor is ctx.root:
                    break  # nowhere to move at all
                cursor, cursor_score = ctx.root, ctx.walk_score(ctx.root)
                restarts += 1
                continue
            action, delta = ranked[rng.randrange(len(ranked))]
            with _phases.phase("score"):
                child = ctx.make_child(cursor, action, delta)
                if child is None:
                    child_score = None
                else:
                    child_score = ctx.walk_score(child)
                    if child.is_candidate:
                        ctx.offer(child)
                    if child_score > best_node_score:
                        best_node, best_node_score = child, child_score
            temperature *= cooling
            if child_score is None:
                rejects += 1
            else:
                gain = child_score - cursor_score
                if gain >= 0.0 or rng.random() < math.exp(
                    gain / max(temperature * ctx.scale, 1e-12)
                ):
                    cursor, cursor_score = child, child_score
                    accepted += 1
                    rejects = 0
                else:
                    rejects += 1
            if rejects >= restart_after:
                cursor, cursor_score = best_node, best_node_score
                restarts += 1
                rejects = 0
        polish_passes = ctx.polish()
        return ctx.finish(
            self.name,
            {
                "accepted_moves": accepted,
                "restarts": restarts,
                "polish_passes": polish_passes,
            },
        )


_REGISTRY: dict[str, SearchStrategy] = {
    strategy.name: strategy
    for strategy in (AStarStrategy(), MctsStrategy(), AnnealingStrategy())
}


def resolve_strategy(value: Optional[str]) -> SearchStrategy:
    """The strategy singleton for a ``SearchSettings.strategy`` value
    (``None`` resolves through ``MISTRAL_SEARCH_STRATEGY``)."""
    return _REGISTRY[resolve_strategy_name(value)]
