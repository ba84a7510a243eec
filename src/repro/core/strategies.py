"""The seeded anytime walker over the configuration graph (DESIGN.md §14).

The adaptation search is a maximization of Eq. 3 over action sequences;
:meth:`~repro.core.search.AdaptationSearch.search` runs it with one of
two backends, named by ``SearchSettings.strategy``:

- ``"astar"`` — the paper's exact Naive / Self-Aware A* (Algorithm 1,
  ``_AStar`` in :mod:`repro.core.search`).  Deterministic, proves
  optimality on terminal pops, but its frontier grows combinatorially
  with system size.
- ``"annealing"`` — :class:`AnnealingWalker`, a seeded simulated-
  annealing walk: propose a near-ideal action, accept improvements
  always and regressions with probability ``exp(Δ/T)`` under a
  geometric cooling schedule, teleporting back to the best incumbent
  after a run of rejections.  The retired name ``"mcts"`` selects it
  too (``STRATEGY_ALIASES``).

The walker's contract (test-enforced by ``tests/test_strategies.py``):

- **Deterministic** — all randomness flows from one private
  ``random.Random(WALKER_SEED)``; the wall clock is consulted only by
  the deadline watchdog.
- **Anytime** — a feasible incumbent (at worst the explicit null plan)
  exists from the first instant, so aborting at any point — budget
  exhaustion, the deadline watchdog, controller degradation — returns a
  valid, executable plan.
- **Watchdog-composed** — ``settings.deadline_seconds`` is checked
  cooperatively once per iteration, so the wall-time overshoot is
  bounded by a single step; deadline-aborted outcomes set
  ``deadline_aborted`` and thereby feed the controller's degradation
  ladder exactly like an aborted A*.

The walker runs on the A*'s per-search context (``_SearchRun``): the
same ideal, scope projection, action enumeration (ideal-cap highways
and scope filtering included), seed plans, cost memo, delta-path child
arithmetic and outcome funnel.  Its plans are therefore executable by
the same Cluster and comparable utility-for-utility with the exact
search.  What it adds is its own: the RNG, the incumbent, the proposal
cache, the child memo and the polish.  The memo keeps every child the
walk, the seed chains and the replays build, in its parent vertex's
``children`` slot, for the rest of the search (the beam only reads
it): a revisit returns the same vertex instead of rebuilding it, yet
still counts and charges one child evaluation, so decisions and their
virtual decision time are those of a walker that rebuilds every
child.  Unlike the A*, it does not meter the cost of its own
decision against the ``UH``/``T`` budget.  An error inside the walker
is raised out of the search, as an A* error is.
"""

from __future__ import annotations

import math
import os
import random
from operator import itemgetter
from typing import Optional

from repro.core.actions import ActionError, AdaptationAction, NullAction
from repro.core.search import (
    MAX_PLAN_ACTIONS,
    PER_CHILD_APPLY_SECONDS,
    PER_CHILD_EVAL_SECONDS,
    PER_VERTEX_SECONDS,
    STRATEGY_ALIASES,
    STRATEGY_KINDS,
    SearchOutcome,
    _SearchRun,
    _Vertex,
)
from repro.telemetry import phases as _phases

__all__ = ["AnnealingWalker", "resolve_strategy_name"]

#: Seed of the walker's private RNG: two searches with the same inputs
#: and settings make identical decisions.
WALKER_SEED = 0

#: Proposal width of the walker: each step considers only this many
#: enumerated placement actions closest to the ideal configuration
#: (weighted-Euclidean distance, the ranking the self-aware prune uses).
WALKER_BRANCH_LIMIT = 16

#: Annealing step budget per search; a step is one proposed child.
#: The search "completes" (is not deadline-aborted) when this budget is
#: exhausted before the watchdog fires.
ANNEALING_ITERATIONS = 2400

#: Geometric cooling factor applied once per step: the temperature
#: falls to ~10% of its initial value over the step budget.
ANNEALING_COOLING = 0.999

#: Initial annealing temperature, as a fraction of the search's utility
#: scale (the ideal-vs-null utility gap over the window).
ANNEALING_INITIAL_TEMPERATURE = 0.35

#: Consecutive rejected/inapplicable moves before the walker teleports
#: back to its best incumbent (anytime restarts).
ANNEALING_RESTART_INTERVAL = 60


def resolve_strategy_name(value: Optional[str]) -> str:
    """The effective strategy name for a settings value.

    ``None`` consults the ``MISTRAL_SEARCH_STRATEGY`` environment
    variable (unset/empty → ``"astar"``).  A retired name resolves to
    the backend that replaced it (``STRATEGY_ALIASES``).  Unknown names
    raise — a typo'd operator override must fail loudly, not silently
    fall back to a different search.
    """
    if value is None:
        raw = os.environ.get("MISTRAL_SEARCH_STRATEGY", "")
        value = raw.strip().lower()
        if not value:
            return "astar"
    value = STRATEGY_ALIASES.get(value, value)
    if value not in STRATEGY_KINDS:
        raise ValueError(
            f"unknown search strategy {value!r}: expected one of "
            f"{STRATEGY_KINDS} (check MISTRAL_SEARCH_STRATEGY or "
            "SearchSettings.strategy)"
        )
    return value


class AnnealingWalker:
    """Seeded simulated-annealing walk over action chains (anytime).

    Decision time uses the A*'s virtual accounting (per-step and
    per-child charges), so durations are deterministic and platform-
    independent.
    """

    def __init__(self, run: _SearchRun) -> None:
        self.run = run
        self.settings = run.settings
        self.rng = random.Random(WALKER_SEED)
        self.iterations = 0
        self.evaluations = 0
        self.candidate_offers = 0
        self.virtual_seconds = 0.0
        #: Incumbent: starts at the explicit null plan, so any abort
        #: returns a valid decision (the anytime guarantee).
        self.best_value = run.null_value
        self.best_actions: tuple = ()
        self.best_configuration = run.current
        #: Utility scale of the annealing temperature: one unit is the
        #: ideal-vs-null utility gap over the window (floored so flat
        #: landscapes still grade).
        bound = run.window * run.ideal_rate
        self.scale = max(bound - run.null_value, 0.05 * abs(bound), 1e-9)
        #: Ranked-action proposals per visited configuration (ranking
        #: is deterministic, so caching cannot change decisions).
        self._ranked: dict = {}
        #: Seed chains recorded by :meth:`seed_plans` (polish starts).
        self.seed_chains: list[list[_Vertex]] = []
        #: Useful plans are at most a few actions longer than the
        #: planner's direct route to the ideal: past the window's end
        #: accrual freezes, so deeper wandering only pads the plan.
        #: ``seed_plans`` tightens this to the longest seed plan + 3.
        self.depth_limit = min(MAX_PLAN_ACTIONS, 12)

    # -- evaluation ----------------------------------------------------

    def candidate_value(self, node: _Vertex) -> float:
        """True Eq. 3 value of committing to this candidate."""
        return self.run.candidate_value(node, self.run.steady(node))

    def walk_score(self, node: _Vertex) -> float:
        """Local navigation score: the *true* Eq. 3 value of stopping
        here (steady-solved, not the admissible bound — the bound
        rewards any distance-reducing edit no matter how bad its real
        rate, which sends a local walker straight downhill), deflated
        for infeasible intermediates by the A*'s guidance potential
        (they still owe adaptation work before they can be committed)."""
        value = self.candidate_value(node)
        if node.is_candidate:
            return value
        run = self.run
        seconds = run.basis.togo_seconds(node.state, node.configuration)
        return value - (self.settings.guidance_weight * seconds * run.rate_gap)

    def offer(self, node: _Vertex) -> float:
        """Evaluate a candidate node and raise the incumbent if it
        wins.  Every offer is also a provenance candidate note, so
        ``decision.provenance`` records the rejected rivals."""
        value = self.candidate_value(node)
        self.candidate_offers += 1
        if self.run.collector is not None:
            self.run.collector.note_candidate(value, node.actions)
        if value > self.best_value:
            self.best_value = value
            self.best_actions = node.actions
            self.best_configuration = node.configuration
        return value

    # -- moves ---------------------------------------------------------

    def ranked_actions(
        self, node: _Vertex, limit: Optional[int] = WALKER_BRANCH_LIMIT
    ) -> list:
        """The applicable actions from a node, closest-to-ideal first,
        truncated to ``limit`` placement entries (``None`` →
        untruncated) — the same enumeration and distance ranking the
        self-aware prune uses.  Entries are ``(action, delta)`` tuples;
        host power toggles rank after the placement head regardless of
        ``limit`` (their child distance ties with the parent's, yet
        they are exactly the moves that finish a consolidation)."""
        cached = self._ranked.get(node.configuration)
        if cached is None:
            run = self.run
            search = run.search
            with _phases.phase("enumerate"):
                possible = search._enumerate_actions(
                    node.configuration, run.ideal_caps
                )
            entries = []
            toggles = []
            for order, action in enumerate(possible):
                if isinstance(action, NullAction):
                    continue  # the walker offers candidates directly
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
                        run.basis.child_distance(node.state, delta),
                        order,
                        action,
                        delta,
                    )
                )
            entries.sort(key=itemgetter(0, 1))
            self.virtual_seconds += (
                len(entries) + len(toggles)
            ) * PER_CHILD_APPLY_SECONDS
            cached = (
                [(action, delta) for _, _, action, delta in entries],
                toggles,
            )
            self._ranked[node.configuration] = cached
        placements, toggles = cached
        if limit is not None:
            placements = placements[:limit]
        return placements + toggles

    def make_child(
        self,
        node: _Vertex,
        action: AdaptationAction,
        delta: Optional[tuple] = None,
        *,
        store: bool = True,
    ) -> Optional[_Vertex]:
        """The child of ``node`` by ``action``, charged as one child
        evaluation.  ``delta`` is the action's placement delta, or
        ``None`` to validate the action here (``None`` back if it does
        not apply).

        The first build of each (node, action) goes through the
        context's child arithmetic and is kept in ``node.children``
        for the rest of the search, so a revisit returns the same
        vertex, steady estimate included, without validating or
        pricing the action again.  ``store=False`` reads the memo but
        adds nothing to it: the beam's tiers are almost all new
        children, and keeping them would hold every tier of the beam
        in memory (DESIGN.md §14, "The child memo")."""
        children = node.children
        child = None if children is None else children.get(action)
        if child is None:
            run = self.run
            if delta is None:
                search = run.search
                try:
                    delta = action.placement_delta(
                        node.configuration, search.catalog, search.limits
                    )
                except ActionError:
                    return None
            child = run.child(node, action, delta, run.steady(node))
            if store:
                if children is None:
                    node.children = children = {}
                children[action] = child
        self.evaluations += 1
        self.virtual_seconds += PER_CHILD_EVAL_SECONDS
        return child

    def seed_plans(self) -> list:
        """Install the direct transition plans to the ideal (and its
        Perf-Pwr alternatives) as starting incumbents — the A*'s
        seeding, so the walker starts from the planner's best direct
        plan and can only improve on it.

        Returns the seed chains (one ``[_Vertex, ...]`` per target,
        root excluded) so the walk can start from them (the annealing
        restart anchor)."""
        run = self.run
        chains: list[list[_Vertex]] = []
        longest = 0
        with _phases.phase("score"):
            for target in run.seed_targets():
                node = run.root
                chain: list[_Vertex] = []
                for node in run.seed_chain(target, self.make_child):
                    chain.append(node)
                    if node.is_candidate:
                        self.offer(node)
                longest = max(longest, len(node.actions))
                if chain:
                    chains.append(chain)
        self.depth_limit = min(
            MAX_PLAN_ACTIONS, max(self.depth_limit, longest + 3)
        )
        self.seed_chains = chains
        return chains

    def replay(self, actions) -> Optional[_Vertex]:
        """Re-walk an action sequence from the root, offering every
        candidate prefix met on the way; ``None`` if any step fails."""
        node = self.run.root
        for action in actions:
            node = self.make_child(node, action)
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
                        if self.run.expired():
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
        tier = [self.run.root]
        depths = 0
        stale = 0
        tier_mark = -math.inf
        with _phases.phase("score"):
            for _ in range(self.depth_limit):
                mark = self.best_value
                children: list[_Vertex] = []
                for node in tier:
                    if self.run.expired():
                        return depths
                    for action, delta in self.ranked_actions(node, None):
                        children.append(
                            self.make_child(node, action, delta, store=False)
                        )
                if not children:
                    break
                # Transpositions of the same edits meet again in the
                # same configuration; keep only the best-accrued route
                # to each (the same frontier dedup the A* does).
                best_route: dict = {}
                for child in children:
                    rival = best_route.get(child.configuration)
                    if rival is None or (
                        self.run.bound(child) > self.run.bound(rival)
                    ):
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
                    key=lambda i: (-self.run.bound(children[i]), i),
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
            if self.run.expired() or not best:
                return
            variants = [
                best[:i] + (best[i + 1], best[i]) + best[i + 2 :]
                for i in range(len(best) - 1)
            ] + [best[:i] + best[i + 1 :] for i in range(len(best))]
            improved = False
            for variant in variants:
                if self.run.expired():
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
                if self.run.expired():
                    break
                self._climb(base)
            # Climbs can improve the *global* incumbent through offered
            # prefixes without their local best following it; re-climb
            # the incumbent until it stops moving so gains compound
            # across starts.
            for _ in range(4):
                if self.run.expired():
                    break
                incumbent = self.best_actions
                if not incumbent:
                    break
                self._climb(incumbent)
                if self.best_actions == incumbent:
                    break
        return len(starts)


    # -- the walk --------------------------------------------------------

    def search(self) -> SearchOutcome:
        run = self.run
        if run.ideal.configuration == run.current:
            return self.finish(optimal=True, early_return=True)
        run.prepare(True)
        chains = self.seed_plans()
        rng = self.rng
        max_depth = self.depth_limit
        temperature = ANNEALING_INITIAL_TEMPERATURE
        # The walk compares positions on one consistent scale — the
        # walk score (true Eq. 3 value, minus the A*'s guidance
        # potential for infeasible intermediates); candidates are
        # offered to the incumbent as a side effect, with their exact
        # delta-solved steady values.
        #
        # Restart anchor: the best-scoring node seen so far — seeded
        # with the planner's direct chains, so the walk starts in the
        # neighborhood of the direct route to the ideal.
        best_node = run.root
        best_node_score = self.walk_score(run.root)
        for chain in chains:
            for node in chain:
                score = self.walk_score(node)
                if score > best_node_score:
                    best_node, best_node_score = node, score
        cursor, cursor_score = best_node, best_node_score
        accepted = 0
        restarts = 0
        rejects = 0
        for _ in range(ANNEALING_ITERATIONS):
            if run.expired():
                break
            self.iterations += 1
            self.virtual_seconds += PER_VERTEX_SECONDS
            if len(cursor.actions) >= max_depth:
                cursor, cursor_score = best_node, best_node_score
                restarts += 1
                rejects = 0
            ranked = self.ranked_actions(cursor)
            if not ranked:
                if cursor is run.root:
                    break  # nowhere to move at all
                cursor, cursor_score = run.root, self.walk_score(run.root)
                restarts += 1
                continue
            action, delta = ranked[rng.randrange(len(ranked))]
            with _phases.phase("score"):
                child = self.make_child(cursor, action, delta)
                child_score = self.walk_score(child)
                if child.is_candidate:
                    self.offer(child)
                if child_score > best_node_score:
                    best_node, best_node_score = child, child_score
            temperature *= ANNEALING_COOLING
            gain = child_score - cursor_score
            if gain >= 0.0 or rng.random() < math.exp(
                gain / max(temperature * self.scale, 1e-12)
            ):
                cursor, cursor_score = child, child_score
                accepted += 1
                rejects = 0
            else:
                rejects += 1
            if rejects >= ANNEALING_RESTART_INTERVAL:
                cursor, cursor_score = best_node, best_node_score
                restarts += 1
                rejects = 0
        polish_passes = self.polish()
        return self.finish(
            {
                "accepted_moves": accepted,
                "restarts": restarts,
                "polish_passes": polish_passes,
            }
        )

    def finish(
        self,
        tallies: Optional[dict] = None,
        *,
        optimal: bool = False,
        early_return: bool = False,
    ) -> SearchOutcome:
        """The incumbent as the search's outcome, through the
        context's funnel, plus the walker's own ``tallies`` under
        ``search.strategy.annealing.*``."""
        return self.run.finish(
            self.best_actions,
            self.best_configuration,
            self.best_value,
            expansions=self.iterations,
            decision_seconds=max(PER_VERTEX_SECONDS, self.virtual_seconds),
            generated=self.evaluations,
            candidates=self.candidate_offers,
            optimal=optimal,
            early_return=early_return,
            deadline_aborted=self.run.deadline_hit,
            strategy="annealing",
            tallies=tallies,
        )
