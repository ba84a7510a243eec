"""The Perf-Pwr optimizer (paper §IV-A).

Finds the configuration that optimally trades performance utility
against power cost for a given workload while ignoring transient
adaptation costs.  Its output plays three roles: (1) the "ideal
configuration" ``c*`` and "ideal utility" ``U*`` used as the admissible
A* heuristic, (2) the Perf-Pwr baseline controller of §V-C, and (3)
(in a constrained variant) the capacity oracle of the Pwr-Cost
baseline.

Algorithm: for a decreasing number of available hosts, start from
maximum capacities/replication, attempt worst-fit-decreasing bin
packing, and — while packing fails — run a gradient search that either
shaves one VM's cap by a step or drops one replica, choosing the
candidate with the best ratio of CPU utilization reduction to
performance-utility loss; each successful packing yields a potential
optimum whose overall utility rate (performance + power) is compared
across host counts.  A candidate is a move ``(vm_id, new cap)`` (cap
``None``: replica dropped) that changes one VM, so it is scored off a
view of the current plan (its tier solutions, per-tier busy-CPU terms
and per-app performance rates) by re-solving that VM's tier alone.

Tier solves are memoized at two levels.  A tier's solution depends only
on its placed replicas' caps and its application's rate, so the walks
of one workload vector (an ``optimize`` call's minimal-capacities walk,
gradient walk and every host count, or one standalone
``minimal_capacities`` call) share a tier-solve memo keyed by the moved
tier and those caps, dropped when the call returns.  Each walk also
memoizes every move's score until a step changes that move's
application; re-scoring such a move recomposes its response time from
memoized tier solutions, so only the stepped tier's moves run the tier
kernel.  A step works on the plan alone: it splices the chosen move's
score into the view and updates the kept move list for the one VM it
changed.  Only a walk's root is solved whole.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from repro.apps.application import ApplicationSet
from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
)
from repro.core.estimator import SteadyEstimate, UtilityEstimator
from repro.core.lru import LruDict
from repro.perfmodel.solver import (
    SolveState,
    TierSolution,
    pseudo_configuration,
)
from repro.telemetry import runtime as _telemetry

#: A one-step reduction of a capacity plan: the VM it changes and that
#: VM's new cap, or ``None`` when the replica is dropped.
Move = tuple[str, Optional[float]]

#: What one move's tier solve yields: the moved tier's solution and
#: busy-CPU terms, and its application's performance utility rate and
#: response time.
TierScore = tuple[TierSolution, list[float], float, float]


@dataclass(frozen=True)
class CapacityPlan:
    """Capacity vector during gradient search: active VMs and caps."""

    caps: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", dict(self.caps))

    def total_cap(self) -> float:
        """Sum of all VM caps."""
        return sum(self.caps.values())

    def reduce_cap(self, vm_id: str, step: float) -> "CapacityPlan":
        """One step smaller cap for one VM."""
        caps = dict(self.caps)
        caps[vm_id] = round(caps[vm_id] - step, 10)
        return CapacityPlan(caps)

    def drop_vm(self, vm_id: str) -> "CapacityPlan":
        """Remove one replica."""
        caps = dict(self.caps)
        del caps[vm_id]
        return CapacityPlan(caps)


@dataclass(frozen=True)
class _Parent:
    """A walk step's plan, decomposed so each move is scored by
    re-solving one tier (see ``PerfPwrOptimizer._score``) and the chosen
    one taken by splicing that tier in (``PerfPwrOptimizer._commit``)."""

    plan: CapacityPlan
    #: The plan's tier solutions under ``workloads``, in composition
    #: order.
    tiers: Mapping[tuple[str, str], TierSolution]
    workloads: Mapping[str, float]
    #: Busy CPU ``min(rho, 1) * cap`` per placed VM, in composition
    #: order (apps in workload order, tiers and replicas in catalog
    #: order), and each tier's ``(start, stop)`` slice of it.
    busy_terms: list[float]
    spans: Mapping[tuple[str, str], tuple[int, int]]
    #: Performance utility rate per application, in workload order,
    #: and each application's index into it.
    perf_rates: list[float]
    app_index: Mapping[str, int]
    #: Target response time per application (one table per walk), and
    #: the applications over it.
    targets: Mapping[str, float]
    missed: frozenset[str]
    busy: float
    perf_rate: float
    #: The plan's one-step reductions in ``PerfPwrOptimizer._moves``
    #: order: built at the walk's root, updated by each step.
    moves: list[Move]
    #: The walk's memo, per application: each scored move's
    #: ``TierScore``.  Only a step in that application makes them stale.
    memo: dict[str, dict[Move, TierScore]]
    #: The workload vector's tier-solve memo (``LqnSolver.solve_move``),
    #: shared by the walks of one ``optimize`` or ``minimal_capacities``
    #: call.
    solved: dict[tuple, TierSolution]


@dataclass
class PerfPwrResult:
    """Output of the Perf-Pwr optimizer."""

    configuration: Configuration
    perf_rate: float
    power_rate: float
    estimate: SteadyEstimate
    hosts_used: int
    evaluations: int
    #: The per-host-count potential optima the winner was chosen from
    #: (including the winner itself); useful as partial-adaptation
    #: targets when a full transition would not fit a control window.
    alternatives: list["PerfPwrResult"] = field(default_factory=list)

    @property
    def ideal_rate(self) -> float:
        """The ideal utility accrual rate U* (performance + power)."""
        return self.perf_rate + self.power_rate


class PerfPwrOptimizer:
    """Optimal performance-power tradeoff, adaptation costs ignored."""

    def __init__(
        self,
        applications: ApplicationSet,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        estimator: UtilityEstimator,
        host_ids: Sequence[str],
        max_vm_cap: Optional[float] = None,
        min_cap_for_target: bool = False,
        consider_minimal_candidate: bool = True,
    ) -> None:
        """``min_cap_for_target=True`` is the Pwr-Cost variant: the
        gradient search refuses candidates that push any application
        over its target response time (paper §V-C).

        ``consider_minimal_candidate=False`` runs the paper's plain
        gradient algorithm; the default additionally evaluates the
        target-meeting minimal capacities at each host count (an
        enhancement that tightens the ideal used as Mistral's
        heuristic — see DESIGN.md)."""
        if not host_ids:
            raise ValueError("optimizer needs at least one host")
        self.applications = applications
        self.catalog = catalog
        self.limits = limits
        self.estimator = estimator
        self.host_ids = tuple(host_ids)
        self.max_vm_cap = max_vm_cap or limits.max_total_cpu_cap
        self.min_cap_for_target = min_cap_for_target
        self.consider_minimal_candidate = consider_minimal_candidate
        #: Capacity plans solved so far (walk roots and scored moves),
        #: the tier solves the walks ran (one per entry of a tier-solve
        #: memo; the memos answered every other scored move), and the
        #: moves committed by the gradient and minimal walks.
        self.plans_scored = 0
        self.tier_solves = 0
        self.steps = 0
        #: Each tier's replica VM ids in catalog order with its minimum
        #: replication, and each VM's ``(app, tier)``.
        tier_vms: dict[tuple[str, str], tuple[str, ...]] = {}
        for descriptor in catalog:
            key = (descriptor.app_name, descriptor.tier_name)
            tier_vms[key] = tier_vms.get(key, ()) + (descriptor.vm_id,)
        self._tiers = {
            (app_name, tier_name): (
                vm_ids,
                applications.get(app_name).tier(tier_name).min_replicas,
            )
            for (app_name, tier_name), vm_ids in tier_vms.items()
        }
        self._vm_tier = {
            vm_id: key for key, vm_ids in tier_vms.items() for vm_id in vm_ids
        }
        self._result_cache: LruDict[tuple, PerfPwrResult] = LruDict(
            5_000, name="perf_pwr.result"
        )
        self._minimal_cache: LruDict[tuple, CapacityPlan] = LruDict(
            5_000, name="perf_pwr.minimal"
        )

    # -- public API ---------------------------------------------------------

    def optimize(self, workloads: Mapping[str, float]) -> PerfPwrResult:
        """Best configuration for ``workloads`` over all host counts.

        Results are memoized per workload vector: within one monitoring
        interval every controller level consults the same ideal.
        """
        wkey = self.estimator.workload_key(workloads)
        memoized = self._result_cache.get(wkey)
        if memoized is not None:
            if _telemetry.enabled:
                _telemetry.registry.counter("perf_pwr.memo_hits").inc()
            return memoized
        wall_start = time.perf_counter() if _telemetry.enabled else 0.0
        start_evaluations = self.estimator.evaluations
        start_plans = self.plans_scored
        start_solves = self.tier_solves
        start_steps = self.steps
        results: list[PerfPwrResult] = []
        # This workload vector's tier-solve memo: both walks and every
        # host count share it, and it goes when this call returns.
        solved: dict[tuple, TierSolution] = {}
        # The gradient is one walk across all host counts.
        parent = self._root(workloads, solved)
        min_hosts = self._min_hosts()
        # The target-meeting minimum is a second candidate per host
        # count: the gradient path shrinks monotonically across host
        # counts and can overshoot past configurations that still meet
        # every target on fewer hosts.
        minimal_plan = (
            self._minimal(workloads, wkey, solved)
            if self.consider_minimal_candidate
            else None
        )
        for host_count in range(len(self.host_ids), min_hosts - 1, -1):
            hosts = self.host_ids[:host_count]
            candidates: list[Configuration] = []
            packed, parent = self._search_for_hosts(parent, hosts)
            if packed is not None:
                candidates.append(packed)
            if minimal_plan is not None and not self._over_capacity(
                minimal_plan, hosts
            ):
                packed_minimal = self._pack(minimal_plan, hosts)
                if packed_minimal is not None:
                    candidates.append(packed_minimal)
            best_for_count: Optional[PerfPwrResult] = None
            for candidate in candidates:
                estimate = self.estimator.estimate(
                    candidate, workloads, key=wkey
                )
                result = PerfPwrResult(
                    configuration=candidate,
                    perf_rate=estimate.perf_rate,
                    power_rate=estimate.power_rate,
                    estimate=estimate,
                    hosts_used=len(candidate.powered_hosts),
                    evaluations=0,
                )
                if (
                    best_for_count is None
                    or result.ideal_rate > best_for_count.ideal_rate
                ):
                    best_for_count = result
            if best_for_count is not None:
                results.append(best_for_count)
        self.tier_solves += len(solved)
        if not results:
            raise RuntimeError(
                "Perf-Pwr could not pack even minimal capacities; "
                "the host pool is too small for the application set"
            )
        best = max(results, key=lambda result: result.ideal_rate)
        best.alternatives = results
        best.evaluations = self.estimator.evaluations - start_evaluations
        self._result_cache.put(wkey, best)
        if _telemetry.enabled:
            _telemetry.registry.counter("perf_pwr.optimizations").inc()
            _telemetry.tracer.event(
                "perf_pwr.optimize",
                dur=time.perf_counter() - wall_start,
                evaluations=best.evaluations,
                plans_scored=self.plans_scored - start_plans,
                tier_solves=self.tier_solves - start_solves,
                steps=self.steps - start_steps,
                hosts_used=best.hosts_used,
                host_counts_tried=len(results),
            )
        return best

    def minimal_capacities(
        self, workloads: Mapping[str, float]
    ) -> CapacityPlan:
        """Smallest capacity plan that still meets every target (§V-C).

        The Pwr-Cost baseline's oracle: the paper modifies the Perf-Pwr
        optimizer "so that it will not reduce the VM sizes below the
        capacity needed to meet the target response times".  Starting
        from maximum capacities, reductions are applied greedily while
        all applications stay at or under their target response time.
        Memoized per workload vector; the walk's tier-solve memo goes
        when the call returns.
        """
        solved: dict[tuple, TierSolution] = {}
        plan = self._minimal(
            workloads, self.estimator.workload_key(workloads), solved
        )
        self.tier_solves += len(solved)
        return plan

    def _minimal(
        self,
        workloads: Mapping[str, float],
        wkey: tuple,
        solved: dict[tuple, TierSolution],
    ) -> CapacityPlan:
        """``minimal_capacities`` under the workload key ``wkey``,
        walking with the caller's tier-solve memo ``solved``.

        Each step takes the target-meeting move that frees the most cap
        (one step for a shave, the replica's cap for a drop), the first
        in move order among equals.  On the 0.1 cap grid distinct
        reductions differ by at least 0.1 and equal ones only by float
        noise far below the 1e-9 margin, so this is the move that
        leaves the smallest ``total_cap``.
        """
        memoized = self._minimal_cache.get(wkey)
        if memoized is not None:
            return memoized
        parent = self._root(workloads, solved)
        while True:
            caps = parent.plan.caps
            best: Optional[Move] = None
            best_freed = 0.0
            for move in parent.moves:
                if not self._meets(parent, move):
                    continue
                vm_id, cap = move
                freed = caps[vm_id] if cap is None else caps[vm_id] - cap
                if freed > best_freed + 1e-9:
                    best_freed = freed
                    best = move
            if best is None:
                self._minimal_cache.put(wkey, parent.plan)
                return parent.plan
            parent = self._commit(parent, best)

    # -- capacity plans -------------------------------------------------------

    def _max_plan(self) -> CapacityPlan:
        """All replica slots active at the maximum per-VM cap."""
        caps = {
            descriptor.vm_id: self.max_vm_cap for descriptor in self.catalog
        }
        return CapacityPlan(caps)

    def _min_hosts(self) -> int:
        """Smallest host count that can hold minimum capacities."""
        min_vms = sum(
            tier.min_replicas
            for app in self.applications
            for tier in app.tiers
        )
        by_cpu = math.ceil(
            min_vms * self.limits.min_vm_cpu_cap / self.limits.max_total_cpu_cap
        )
        by_count = math.ceil(min_vms / self.limits.max_vms_per_host)
        return max(1, by_cpu, by_count)

    # -- evaluation ------------------------------------------------------------

    def _root(
        self,
        workloads: Mapping[str, float],
        solved: dict[tuple, TierSolution],
    ) -> _Parent:
        """A walk's root: the maximum plan, fully solved with each VM on
        its own pseudo host (response times depend only on caps, not on
        packing), and decomposed with the walk's targets and the
        workload vector's tier-solve memo ``solved``."""
        plan = self._max_plan()
        self.plans_scored += 1
        state = self.estimator.solver.solve_state(
            pseudo_configuration(plan.caps), workloads
        )
        utility = self.estimator.utility
        targets = {
            app: utility.target_response_time(app, rate)
            for app, rate in workloads.items()
        }
        return self._view(plan, state, workloads, targets, solved)

    def _moves(self, plan: CapacityPlan) -> list[Move]:
        """One-step reductions of ``plan``: every cap that can be shaved
        by a step (in plan order), then the highest-numbered replica of
        every tier above its minimum replication."""
        step = self.limits.cpu_cap_step
        minimum = self.limits.min_vm_cpu_cap
        caps = plan.caps
        moves: list[Move] = [
            (vm_id, round(cap - step, 10))
            for vm_id, cap in caps.items()
            if cap - step >= minimum - 1e-9
        ]
        for vm_ids, min_replicas in self._tiers.values():
            active = [vm_id for vm_id in vm_ids if vm_id in caps]
            if len(active) > min_replicas:
                moves.append((max(active), None))
        return moves

    def _next_moves(
        self, moves: list[Move], move: Move, plan: CapacityPlan
    ) -> list[Move]:
        """``_moves(plan)`` of the ``plan`` that ``move`` led to, from
        its parent's ``moves``: a step changes one VM, so only that VM's
        entries change, each in its place."""
        vm_id, cap = move
        moves = list(moves)
        index = moves.index(move)
        if cap is not None:
            # The VM's next shave, while its cap allows one.
            step = self.limits.cpu_cap_step
            if cap - step >= self.limits.min_vm_cpu_cap - 1e-9:
                moves[index] = (vm_id, round(cap - step, 10))
            else:
                del moves[index]
            return moves
        # A dropped replica loses its shave, and its tier's drop passes
        # to the next-highest replica while the tier is above minimum.
        vm_ids, min_replicas = self._tiers[self._vm_tier[vm_id]]
        active = [member for member in vm_ids if member in plan.caps]
        if len(active) > min_replicas:
            moves[index] = (max(active), None)
        else:
            del moves[index]
        return [other for other in moves if other[0] != vm_id]

    def _view(
        self,
        plan: CapacityPlan,
        state: SolveState,
        workloads: Mapping[str, float],
        targets: Mapping[str, float],
        solved: dict[tuple, TierSolution],
    ) -> _Parent:
        """Decompose a solved plan for scoring its moves; ``busy`` and
        ``perf_rate`` sum the terms exactly as a full estimate would.
        ``targets`` are the walk's and ``solved`` its workload vector's
        tier-solve memo; the view starts the walk's move list and move
        memo."""
        utility = self.estimator.utility
        caps = plan.caps
        busy_terms: list[float] = []
        spans: dict[tuple[str, str], tuple[int, int]] = {}
        # state.tiers is ordered like the estimate it composed.
        for key, solution in state.tiers.items():
            start = len(busy_terms)
            busy_terms.extend(
                min(rho, 1.0) * caps[vm_id]
                for vm_id, rho in solution.vm_utilizations
            )
            spans[key] = (start, len(busy_terms))
        response_times = state.estimate.response_times
        perf_rates = [
            utility.perf_utility_rate(app, rate, response_times[app])
            for app, rate in workloads.items()
        ]
        return _Parent(
            plan=plan,
            tiers=state.tiers,
            workloads=workloads,
            busy_terms=busy_terms,
            spans=spans,
            perf_rates=perf_rates,
            app_index={app: index for index, app in enumerate(workloads)},
            targets=targets,
            missed=frozenset(
                app
                for app, target in targets.items()
                if not response_times[app] <= target
            ),
            busy=sum(busy_terms),
            perf_rate=sum(perf_rates),
            moves=self._moves(plan),
            memo={},
            solved=solved,
        )

    def _tier_score(
        self, parent: _Parent, move: Move
    ) -> Optional[TierScore]:
        """Score ``move`` from ``parent``: its ``TierScore``, from the
        walk's memo or from the moved VM's tier solution (which the
        workload vector's tier-solve memo may hold) and its application's
        response time recomposed, or ``None`` when its application has
        no workload (and so no tier terms: the move changes no score)."""
        self.plans_scored += 1
        vm_id, cap = move
        app = self._vm_tier[vm_id][0]
        rate = parent.workloads.get(app)
        if rate is None:
            return None
        memo = parent.memo.setdefault(app, {})
        scored = memo.get(move)
        if scored is None:
            caps = parent.plan.caps
            solution, response = self.estimator.solver.solve_move(
                caps, parent.tiers, parent.workloads, vm_id, cap, parent.solved
            )
            scored = memo[move] = (
                solution,
                [
                    min(rho, 1.0) * (cap if member == vm_id else caps[member])
                    for member, rho in solution.vm_utilizations
                ],
                self.estimator.utility.perf_utility_rate(app, rate, response),
                response,
            )
        return scored

    def _score(self, parent: _Parent, move: Move) -> tuple[float, float, bool]:
        """(busy CPU, performance utility rate, meets every target) of
        the plan ``move`` leads to from ``parent`` (see ``_tier_score``).
        Power needs a real packing and is not part of the gradient.

        Both sums run over the same term sequence a full estimate of
        the moved plan yields: ``sum()`` is compensated from Python
        3.12 on, so any other reduction could break bit-identity.
        """
        scored = self._tier_score(parent, move)
        if scored is None:
            return parent.busy, parent.perf_rate, not parent.missed
        _, tier_busy, app_rate, response = scored
        key = self._vm_tier[move[0]]
        app = key[0]
        start, stop = parent.spans[key]
        terms = parent.busy_terms
        busy = sum(terms[:start] + tier_busy + terms[stop:])
        index = parent.app_index[app]
        rates = parent.perf_rates
        perf_rate = sum(rates[:index] + [app_rate] + rates[index + 1 :])
        meets = parent.missed <= {app} and response <= parent.targets[app]
        return busy, perf_rate, meets

    def _meets(self, parent: _Parent, move: Move) -> bool:
        """``_score``'s target check alone, with no busy-CPU or
        performance-rate sums (``minimal_capacities`` reads nothing
        else)."""
        scored = self._tier_score(parent, move)
        if scored is None:
            return not parent.missed
        app = self._vm_tier[move[0]][0]
        return parent.missed <= {app} and scored[3] <= parent.targets[app]

    def _commit(self, parent: _Parent, move: Move) -> _Parent:
        """Take the chosen step on the plan alone: the view of the plan
        ``move`` leads to, spliced from ``parent``'s and the move's
        memoized score (``move`` was scored from ``parent``), with the
        move list updated for the one moved VM, solving nothing.

        The step changes that tier's term in its application's response
        time, so every memoized score of that application is stale, the
        other tiers' moves included (their tier solutions stay in the
        tier-solve memo).  Other applications' tiers, caps and response
        times are untouched, and their scores stay.  ``busy`` and
        ``perf_rate`` re-sum the spliced sequences with ``sum()``,
        exactly as ``_view`` of a full solve would.
        """
        self.steps += 1
        vm_id, cap = move
        key = self._vm_tier[vm_id]
        app = key[0]
        plan = (
            parent.plan.drop_vm(vm_id)
            if cap is None
            else parent.plan.reduce_cap(vm_id, self.limits.cpu_cap_step)
        )
        moves = self._next_moves(parent.moves, move, plan)
        if app not in parent.workloads:
            # An application without workload has no tier terms.
            return replace(parent, plan=plan, moves=moves)
        solution, tier_busy, app_rate, response = parent.memo.pop(app)[move]
        tiers = dict(parent.tiers)
        tiers[key] = solution
        start, stop = parent.spans[key]
        terms = parent.busy_terms
        busy_terms = terms[:start] + tier_busy + terms[stop:]
        spans = parent.spans
        if len(tier_busy) != stop - start:
            # A replica dropped: the later tiers' terms move down one.
            spans = {
                tier: (first - 1, last - 1) if first >= stop else (first, last)
                for tier, (first, last) in spans.items()
            }
            spans[key] = (start, stop - 1)
        perf_rates = list(parent.perf_rates)
        perf_rates[parent.app_index[app]] = app_rate
        missed = parent.missed - {app}
        if not response <= parent.targets[app]:
            missed |= {app}
        # Built whole: dataclasses.replace costs three times as much.
        return _Parent(
            plan=plan,
            tiers=tiers,
            workloads=parent.workloads,
            busy_terms=busy_terms,
            spans=spans,
            perf_rates=perf_rates,
            app_index=parent.app_index,
            targets=parent.targets,
            missed=missed,
            busy=sum(busy_terms),
            perf_rate=sum(perf_rates),
            moves=moves,
            memo=parent.memo,
            solved=parent.solved,
        )

    # -- gradient search ---------------------------------------------------------

    def _search_for_hosts(
        self, parent: _Parent, hosts: Sequence[str]
    ) -> tuple[Optional[Configuration], _Parent]:
        """Shrink ``parent``'s plan until it packs on ``hosts`` (or give
        up).

        Returns the packed configuration (or None) and the final plan's
        view, which seeds the next, smaller host count — matching the
        paper's iterative host-count reduction.
        """
        while True:
            plan = parent.plan
            if not self._over_capacity(plan, hosts):
                packed = self._pack(plan, hosts)
                if packed is not None:
                    return packed, parent
            best: Optional[Move] = None
            best_key: tuple[float, float] = (-math.inf, -math.inf)
            for move in parent.moves:
                busy, perf_rate, meets = self._score(parent, move)
                if self.min_cap_for_target and not meets:
                    continue
                delta_busy = busy - parent.busy
                delta_perf = perf_rate - parent.perf_rate
                if delta_perf >= 0:
                    # Free (or beneficial) reduction: always preferred;
                    # break ties by the larger CPU reduction.
                    key = (math.inf, -delta_busy + delta_perf * 1e6)
                elif delta_busy < 0:
                    key = (delta_busy / delta_perf, -delta_busy)
                else:
                    key = (-math.inf, delta_busy)
                if key > best_key:
                    best_key = key
                    best = move
            if best is None:
                return None, parent
            parent = self._commit(parent, best)

    # -- bin packing -------------------------------------------------------------

    def _over_capacity(self, plan: CapacityPlan, hosts: Sequence[str]) -> bool:
        """True when the plan's total cap exceeds what ``hosts`` can
        hold, so ``_pack`` would fail.

        ``_pack`` puts a VM of cap ``c`` on a host whose remaining CPU
        ``r`` has ``r + 1e-9 >= c`` and rounds ``r - c`` to 10 digits,
        shifting it by at most 5e-11.  A host holding ``k`` VMs thus
        takes at most ``max_total_cpu_cap + 1e-9 + (k - 1) * 5e-11``
        of cap, under ``max_total_cpu_cap + 1e-8`` for any
        ``max_vms_per_host`` below 181; the slack also covers the
        float error of ``total_cap``'s sum.
        """
        return plan.total_cap() > len(hosts) * (
            self.limits.max_total_cpu_cap + 1e-8
        )

    def _pack(
        self, plan: CapacityPlan, hosts: Sequence[str]
    ) -> Optional[Configuration]:
        """Worst-fit-decreasing packing of the plan onto ``hosts``.

        Follows the paper: place each VM on the used host with the
        largest remaining space; open a new (empty) host only when no
        used host fits.  Fails (returns ``None``) when a VM fits
        nowhere.
        """
        limits = self.limits
        order = sorted(
            plan.caps.items(), key=lambda item: (-item[1], item[0])
        )
        cpu_left = {host: limits.max_total_cpu_cap for host in hosts}
        memory_left = {host: limits.guest_memory_mb for host in hosts}
        slots_left = {host: limits.max_vms_per_host for host in hosts}
        used: list[str] = []
        placements: dict[str, Placement] = {}

        def fits(host: str, vm_id: str, cap: float) -> bool:
            descriptor = self.catalog.get(vm_id)
            return (
                cpu_left[host] + 1e-9 >= cap
                and memory_left[host] >= descriptor.memory_mb
                and slots_left[host] >= 1
            )

        for vm_id, cap in order:
            candidates = [host for host in used if fits(host, vm_id, cap)]
            if candidates:
                host = max(candidates, key=lambda h: (cpu_left[h], h))
            else:
                unused = [
                    host
                    for host in hosts
                    if host not in used and fits(host, vm_id, cap)
                ]
                if not unused:
                    return None
                host = unused[0]
                used.append(host)
            descriptor = self.catalog.get(vm_id)
            cpu_left[host] = round(cpu_left[host] - cap, 10)
            memory_left[host] -= descriptor.memory_mb
            slots_left[host] -= 1
            placements[vm_id] = Placement(host, cap)

        return Configuration(placements, frozenset(used))
