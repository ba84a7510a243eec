"""The holistic optimization search (paper §IV-B, Algorithm 1).

Vertices are configurations, edges are adaptation actions, and the
search maximizes Eq. 3's overall utility over the control window: each
edge accrues ``d(a) * (U_RT(c, a) + U_pwr(c, a))`` — the transient
utility rates while the action runs, predicted by the Cost Manager —
and a vertex's priority is that accrued value plus a *cost-to-go* term.
For intermediate (constraint-violating) configurations the cost-to-go
is the ideal utility rate ``U*`` from the Perf-Pwr optimizer over the
remaining window — an over-estimate, hence an admissible heuristic —
while candidate configurations use their own estimated steady rate.
Popping a terminal ("null"-action) vertex therefore proves optimality.

The **Self-Aware** variant additionally meters the cost of deciding:
virtual search time ``T`` (expansions x per-vertex evaluation time),
the utility the *current* configuration accrues while the search runs
(``UT``), and the search's own power draw (``UpwrT``).  When the search
cost exhausts the expected utility ``UH`` or ``T`` exceeds the delay
threshold (5% of the control window), each expansion is pruned to the
top 5% of children by weighted-Euclidean distance to the ideal
configuration ``c*``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter
from typing import Callable, Iterator, Mapping, Optional, Sequence

from repro.apps.application import ApplicationSet
from repro.core.actions import (
    ActionError,
    AdaptationAction,
    AddReplica,
    DecreaseCpu,
    IncreaseCpu,
    MigrateVm,
    NullAction,
    PowerOffHost,
    PowerOnHost,
    RemoveReplica,
)
from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
)
from repro.core.rounds import (
    ArrayBasis,
    ArrayStatics,
    _togo_vm_term,
    add_block,
    power_block,
    vm_block,
)
from repro.core.estimator import SteadyEstimate, UtilityEstimator
from repro.core.perf_pwr import PerfPwrOptimizer, PerfPwrResult
from repro.core.planner import plan_transition
from repro.costmodel.manager import CostManager, PredictedCost
from repro.telemetry import phases as _phases
from repro.telemetry import runtime as _telemetry
from repro.telemetry.provenance import ProvenanceCollector, plan_breakdown

#: All action families the search may use.
ALL_ACTION_KINDS: frozenset[str] = frozenset(
    {
        "increase_cpu",
        "decrease_cpu",
        "migrate",
        "add_replica",
        "remove_replica",
        "power_on",
        "power_off",
    }
)

#: Pluggable search backends (DESIGN.md §14): the paper's exact A*
#: ("astar", the default) and a seeded simulated-annealing walker
#: ("annealing").  Both run on one per-search context (``_SearchRun``:
#: the action-enumeration space, the incremental evaluation machinery
#: and the SearchOutcome funnel); only "astar" proves optimality, while
#: the walker is anytime.
STRATEGY_KINDS: tuple[str, ...] = ("astar", "annealing")

#: Retired backend names still accepted wherever a strategy name is,
#: and the backend each now selects.  The MCTS walker was deleted in
#: favour of annealing (DESIGN.md §14, "Decision record: one anytime
#: walker"); "mcts" keeps old configurations and environments working.
STRATEGY_ALIASES: dict[str, str] = {"mcts": "annealing"}


#: Delay threshold as a fraction of the control window (paper: 5%).
DELAY_THRESHOLD_FRACTION = 0.05

#: The self-aware search commits to its best incumbent once the
#: (virtual) search time exceeds this multiple of the delay threshold —
#: pruning alone bounds width, this bounds depth.
HARD_STOP_FACTOR = 3.0

#: Fraction of children kept once pruning activates (paper: top 5%).
PRUNE_FRACTION = 0.05

#: Virtual decision time charged per vertex expansion, in seconds.
PER_VERTEX_SECONDS = 0.004

#: Virtual decision-time charges, in seconds, on top of
#: :data:`PER_VERTEX_SECONDS`: a small one per child
#: configuration generated (apply + ranking) and a larger one per child
#: fully evaluated (cost prediction + utility estimation).  Search
#: durations are thus deterministic, platform-independent, and grow with
#: the branching factor — which is how the naive search's duration blows
#: up with system size (Table I) while the pruned self-aware search,
#: which skips the evaluation of pruned children, stays nearly linear.
PER_CHILD_APPLY_SECONDS = 0.0002
PER_CHILD_EVAL_SECONDS = 0.0008

#: Extra watts the controller host draws while searching (Fig. 10a: up
#: to ~12% over a 60 W idle draw).
SEARCH_WATTS_DELTA = 7.2

#: CPU cap of newly added replicas.
REPLICA_CAP = 0.2

#: Safety cap on plan length (vertices deeper than this are not expanded
#: further; they can still terminate as candidates).  Must exceed the
#: longest useful reconfiguration (a full consolidation of ~20 VMs runs
#: to roughly 30 actions including cap steps).
MAX_PLAN_ACTIONS = 48


@dataclass(frozen=True)
class SearchSettings:
    """Tuning knobs of the adaptation search."""

    #: Self-aware variant (search-cost accounting + pruning) vs naive A*.
    self_aware: bool = True
    #: Hard safety cap on expansions (returns best candidate so far).
    max_expansions: int = 4000
    #: Action families this controller may use.
    allowed_kinds: frozenset[str] = ALL_ACTION_KINDS
    #: Seed the open set with the direct transition plan to the ideal
    #: configuration (and its prefixes) before searching.
    seed_with_plan: bool = True
    #: Fraction of the (ideal - current) rate gap the cost-to-go is
    #: priced at.  0.5 is the trapezoidal estimate: the accrual rate
    #: improves from the current rate toward the ideal rate as the
    #: adaptation progresses, so pricing the remaining distance at the
    #: full initial gap would over-penalize partially adapted
    #: configurations and hide profitable partial plans.
    togo_discount: float = 0.5
    #: Weight of the distance-to-ideal guidance potential subtracted
    #: from the priority of *intermediate* vertices (terminals keep
    #: their true utility).  The admissible bound alone makes the
    #: search behave like Dijkstra over near-zero-cost cap-tuning edges
    #: — the exponential blowup the paper reports for the naive variant
    #: — so intermediates far from the ideal configuration are deflated
    #: by ``weight * remaining_window * |U*| * distance``, steering
    #: expansion toward the ideal while committing (terminal pops) only
    #: when a candidate's true Eq. 3 utility beats every deflated
    #: bound.  0 recovers the strictly admissible (naive) ordering.
    guidance_weight: float = 1.0
    #: Evaluate children incrementally: per-vertex delta state for
    #: cost-to-go and feasibility, delta LQN solves chained off the
    #: parent's solver state, and the A*'s expansion rounds
    #: (DESIGN.md §13).  Produces bit-identical outcomes to the full
    #: path (``False``), which re-derives every quantity from scratch
    #: per child and exists as the equivalence oracle.
    incremental: bool = True
    #: Watchdog deadline on *measured* search wall time, in seconds.
    #: ``None`` (the default) leaves the watchdog off and the search
    #: path untouched.  When set, the expansion loop checks the clock
    #: cooperatively once per expansion and before each round's cost
    #: predictions; on expiry the search aborts
    #: to its best incumbent (or the null plan) and flags the outcome
    #: ``deadline_aborted``.  Unlike the virtual Eq. 3 accounting, this
    #: bound is wall-clock by design — it exists to stop a *real*
    #: runaway search — so deadline-aborted outcomes are inherently
    #: platform-dependent and the watchdog is opt-in.
    deadline_seconds: Optional[float] = None
    #: Search backend (DESIGN.md §14): one of :data:`STRATEGY_KINDS`
    #: (a :data:`STRATEGY_ALIASES` name is stored as the backend it
    #: selects).  ``None`` consults the ``MISTRAL_SEARCH_STRATEGY``
    #: environment variable and falls back to ``"astar"``, the exact
    #: A*.  ``"annealing"`` is the seeded anytime walker
    #: (:mod:`repro.core.strategies`, whose constants set its seed and
    #: step budget): deterministic, it keeps a feasible incumbent at
    #: all times and returns it on any abort (deadline watchdog
    #: included).
    strategy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_expansions < 1:
            raise ValueError("max_expansions must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")
        if self.strategy is not None:
            strategy = STRATEGY_ALIASES.get(self.strategy, self.strategy)
            if strategy not in STRATEGY_KINDS:
                raise ValueError(
                    f"strategy must be one of {STRATEGY_KINDS} (or None)"
                )
            object.__setattr__(self, "strategy", strategy)


@dataclass
class SearchOutcome:
    """Result of one adaptation search."""

    actions: tuple[AdaptationAction, ...]
    final_configuration: Configuration
    predicted_utility: float
    ideal: PerfPwrResult
    expansions: int
    decision_seconds: float
    wall_seconds: float
    pruning_activated: bool
    optimal: bool
    #: The watchdog expired mid-search and the outcome is the best
    #: incumbent found before the deadline (still a valid, executable
    #: plan — possibly null).  Always ``False`` when
    #: ``SearchSettings.deadline_seconds`` is unset.
    deadline_aborted: bool = False
    #: :class:`~repro.telemetry.provenance.DecisionProvenance` when
    #: telemetry + provenance collection were on for this search, else
    #: ``None``.  Observational only — excluded from the bit-identity
    #: contract along with the measured wall fields.
    provenance: Optional[object] = None
    #: Name of the :data:`STRATEGY_KINDS` backend that produced this
    #: outcome (set by the dispatching ``AdaptationSearch.search``).
    strategy: str = "astar"

    @property
    def is_null(self) -> bool:
        """Whether the search decided to keep the current configuration."""
        return not self.actions


@dataclass(slots=True)
class _Vertex:
    """One search vertex: a configuration plus the Eq. 3 accrual of the
    action chain that reached it.  Both backends build them (slotted:
    one search allocates tens of thousands, and the per-instance dict
    is pure overhead)."""

    configuration: Configuration
    actions: tuple[AdaptationAction, ...]
    accrued: float  # sum of d(a) * transient utility rate
    elapsed: float  # sum of action durations D
    utility: float = 0.0  # true value: bound (intermediate) or Eq. 3 (terminal)
    priority: float = 0.0  # heap ordering: utility minus guidance potential
    terminal: bool = False
    is_candidate: bool = False
    #: Incremental-mode delta state (None on the full path and on
    #: terminal twins, which are never expanded).
    state: "Optional[_VertexState]" = None
    #: Lineage for delta utility estimation: the configuration this
    #: vertex was derived from and the VMs its action changed (None on
    #: the full path, which estimates every vertex from scratch).
    parent_configuration: Optional[Configuration] = None
    changed_vms: frozenset[str] = frozenset()
    #: Array-core dedup key (the codec's byte image of the
    #: configuration; None on the full path and in the walker).
    key: Optional[bytes] = None
    #: Memoized steady estimate (see :meth:`_SearchRun.steady`).
    steady: Optional[SteadyEstimate] = None
    #: The walker's children of this vertex, by action, kept for the
    #: rest of its search (None in the A* and until the walker builds
    #: one; see ``AnnealingWalker.make_child``).
    children: Optional[dict] = None


#: Sentinel distinguishing "no source-host edit" from "source host
#: emptied" (None) in the A*'s per-child candidacy check.
_ABSENT = object()

#: Bound on the enumeration sublist cache (an AdaptationSearch reused
#: across many searches would otherwise accumulate stale keys forever).
_ROUND_ACTION_CACHE_LIMIT = 50_000


@dataclass
class _VertexState:
    """Per-vertex decomposed terms enabling O(changed VMs) child updates.

    The scalar quantities the search needs per child — distance to the
    ideal, cost-to-go seconds, feasibility — are all sums/counts of
    independent per-VM or per-host terms.  Storing the terms lets a
    child recompute only the entries its action touched and re-reduce;
    reductions add left to right in the same canonical order as the
    full-path code, so the results are bit-identical (float addition
    of the same operands in the same order is deterministic).

    States are immutable by convention: children copy-and-replace, and
    actions touching no VM (null, host power) share the parent's state.
    """

    #: weights[i] * (cap - ideal_cap)**2 per catalog index.
    cap_terms: list[float]
    #: 1 if the VM sits on its ideal host (dormant matching dormant
    #: counts), else 0, per catalog index.
    host_matches: list[int]
    #: Cost-to-go seconds per catalog index (placement terms only; the
    #: host power terms are cheap set-diffs computed per vertex).
    togo_terms: list[float]
    #: Per used host: (sum of caps re-rounded onto the decimal grid the
    #: way ``Configuration.host_cpu_load`` does, guest MB, VM count) —
    #: one dict instead of three so children copy one.
    hosts: dict[str, tuple[float, int, int]]
    #: Number of used hosts violating any per-host constraint.
    bad_hosts: int
    #: Placed VMs whose cap is below the per-VM minimum.
    bad_vms: frozenset[str]


class _SearchBasis:
    """Per-search constants for the incremental vertex evaluation."""

    __slots__ = (
        "limits",
        "durations",
        "vm_ids",
        "index",
        "tiers",
        "memory",
        "weights",
        "ideal_caps",
        "ideal_placements",
        "ideal_hosts",
        "ideal_powered",
        "total",
    )

    def __init__(
        self,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        ideal_configuration: Configuration,
        weights: Mapping[str, float],
        ideal_caps: Mapping[str, float],
        durations: Mapping[tuple[str, str], float],
    ) -> None:
        self.limits = limits
        self.durations = durations
        self.vm_ids = catalog.vm_ids()
        self.index = {vm_id: i for i, vm_id in enumerate(self.vm_ids)}
        self.tiers = tuple(
            catalog.get(vm_id).tier_name for vm_id in self.vm_ids
        )
        self.memory = {
            vm_id: catalog.get(vm_id).memory_mb for vm_id in self.vm_ids
        }
        self.weights = tuple(weights[vm_id] for vm_id in self.vm_ids)
        self.ideal_caps = tuple(
            ideal_caps.get(vm_id, 0.0) for vm_id in self.vm_ids
        )
        self.ideal_placements = tuple(
            ideal_configuration.placement_of(vm_id) for vm_id in self.vm_ids
        )
        self.ideal_hosts = tuple(
            placement.host_id if placement is not None else None
            for placement in self.ideal_placements
        )
        self.ideal_powered = ideal_configuration.powered_hosts
        self.total = len(self.vm_ids)

    def _host_bad(self, cpu: float, mem: int, vms: int) -> bool:
        limits = self.limits
        return (
            cpu > limits.max_total_cpu_cap + 1e-9
            or mem > limits.guest_memory_mb
            or vms > limits.max_vms_per_host
        )

    def full_state(self, configuration: Configuration) -> _VertexState:
        """Decompose a configuration from scratch (root vertices)."""
        limits = self.limits
        step = limits.cpu_cap_step
        cap_terms: list[float] = []
        host_matches: list[int] = []
        togo_terms: list[float] = []
        for i, vm_id in enumerate(self.vm_ids):
            placement = configuration.placement_of(vm_id)
            cap = placement.cpu_cap if placement is not None else 0.0
            cap_terms.append(self.weights[i] * (cap - self.ideal_caps[i]) ** 2)
            host = placement.host_id if placement is not None else None
            host_matches.append(1 if host == self.ideal_hosts[i] else 0)
            togo_terms.append(
                _togo_vm_term(
                    placement,
                    self.ideal_placements[i],
                    self.tiers[i],
                    self.durations,
                    step,
                    limits.min_vm_cpu_cap,
                )
            )
        hosts: dict[str, tuple[float, int, int]] = {}
        bad_vm_list: list[str] = []
        for vm_id, placement in configuration.placement_items():
            host = placement.host_id
            entry = hosts.get(host)
            if entry is None:
                hosts[host] = (
                    round(placement.cpu_cap, 10),
                    self.memory[vm_id],
                    1,
                )
            else:
                hosts[host] = (
                    round(entry[0] + placement.cpu_cap, 10),
                    entry[1] + self.memory[vm_id],
                    entry[2] + 1,
                )
            if placement.cpu_cap < limits.min_vm_cpu_cap - 1e-9:
                bad_vm_list.append(vm_id)
        bad_hosts = sum(
            1 for entry in hosts.values() if self._host_bad(*entry)
        )
        return _VertexState(
            cap_terms=cap_terms,
            host_matches=host_matches,
            togo_terms=togo_terms,
            hosts=hosts,
            bad_hosts=bad_hosts,
            bad_vms=frozenset(bad_vm_list),
        )

    def child_state(
        self,
        parent_configuration: Configuration,
        state: _VertexState,
        delta: tuple,
    ) -> _VertexState:
        """Parent state advanced past one action, in O(|delta|).

        ``delta`` is the action's :meth:`placement_delta` — the child's
        placements are read straight from it, so the child configuration
        is never consulted.
        """
        if not delta:
            return state  # null/host-power actions move no VM
        limits = self.limits
        step = limits.cpu_cap_step
        cap_terms = state.cap_terms.copy()
        host_matches = state.host_matches.copy()
        togo_terms = state.togo_terms.copy()
        hosts = state.hosts.copy()
        bad_hosts = state.bad_hosts
        bad_vms = state.bad_vms
        for vm_id, new in delta:
            i = self.index[vm_id]
            old = parent_configuration.placement_of(vm_id)
            cap = new.cpu_cap if new is not None else 0.0
            cap_terms[i] = self.weights[i] * (cap - self.ideal_caps[i]) ** 2
            host = new.host_id if new is not None else None
            host_matches[i] = 1 if host == self.ideal_hosts[i] else 0
            togo_terms[i] = _togo_vm_term(
                new,
                self.ideal_placements[i],
                self.tiers[i],
                self.durations,
                step,
                limits.min_vm_cpu_cap,
            )
            if old is not None:
                src = old.host_id
                entry = hosts[src]
                was_bad = self._host_bad(*entry)
                remaining = entry[2] - 1
                if remaining == 0:
                    del hosts[src]
                    bad_hosts -= was_bad
                else:
                    entry = (
                        round(entry[0] - old.cpu_cap, 10),
                        entry[1] - self.memory[vm_id],
                        remaining,
                    )
                    hosts[src] = entry
                    bad_hosts += self._host_bad(*entry) - was_bad
            if new is not None:
                dst = new.host_id
                entry = hosts.get(dst)
                if entry is not None:
                    was_bad = self._host_bad(*entry)
                    entry = (
                        round(entry[0] + new.cpu_cap, 10),
                        entry[1] + self.memory[vm_id],
                        entry[2] + 1,
                    )
                else:
                    was_bad = False
                    entry = (
                        round(new.cpu_cap, 10),
                        self.memory[vm_id],
                        1,
                    )
                hosts[dst] = entry
                bad_hosts += self._host_bad(*entry) - was_bad
            under_cap = new is not None and (
                new.cpu_cap < limits.min_vm_cpu_cap - 1e-9
            )
            if under_cap != (vm_id in bad_vms):
                bad_vms = (
                    bad_vms | {vm_id} if under_cap else bad_vms - {vm_id}
                )
        return _VertexState(
            cap_terms=cap_terms,
            host_matches=host_matches,
            togo_terms=togo_terms,
            hosts=hosts,
            bad_hosts=bad_hosts,
            bad_vms=bad_vms,
        )

    def child_distance(self, state: _VertexState, delta: tuple) -> float:
        """Weighted-Euclidean distance of a child to the ideal,
        bit-identical to ``AdaptationSearch._distance`` but computed
        straight from an action's placement delta — the anytime walker
        ranks every proposal by distance and keeps only a few, so
        neither the child configuration nor its state is built for the
        discards.  The terms are summed left to right from 0, as
        ``_distance`` sums them (Python 3.12's ``sum()`` compensates
        float sums and would round differently)."""
        cap_terms = state.cap_terms.copy()
        host_matches = state.host_matches.copy()
        for vm_id, new in delta:
            i = self.index[vm_id]
            cap = new.cpu_cap if new is not None else 0.0
            cap_terms[i] = self.weights[i] * (cap - self.ideal_caps[i]) ** 2
            host = new.host_id if new is not None else None
            host_matches[i] = 1 if host == self.ideal_hosts[i] else 0
        matches = sum(host_matches)  # integers: exact in any order
        total = self.total
        placement_term = 1.0 - (matches / total if total else 1.0)
        return math.sqrt(reduce(add, cap_terms, 0.0)) + placement_term

    def togo_seconds(
        self, state: _VertexState, configuration: Configuration
    ) -> float:
        """Bit-identical to ``AdaptationSearch._togo_seconds`` (the
        terms are summed left to right, as there)."""
        seconds = reduce(add, state.togo_terms, 0.0)
        for _ in self.ideal_powered - configuration.powered_hosts:
            seconds += self.durations.get(("power_on", "-"), 90.0)
        for _ in configuration.powered_hosts - self.ideal_powered:
            seconds += self.durations.get(("power_off", "-"), 30.0)
        return seconds

    def is_candidate(self, state: _VertexState) -> bool:
        """Same verdict as ``Configuration.is_candidate``."""
        return state.bad_hosts == 0 and not state.bad_vms

    def child_candidate(
        self,
        state: _VertexState,
        parent_configuration: Configuration,
        delta: tuple,
    ) -> bool:
        """A single-edit child's candidate verdict in O(1), without
        building its state: replays :meth:`child_state`'s host-entry
        arithmetic for the action's one VM edit (every action kind
        moves at most one VM) — at most one source and one destination
        entry, with ``_host_bad`` unrolled inline (same comparisons).

        Quick rejects first: an under-cap VM the action does not touch
        stays under cap, and a bad host the action's (at most two)
        touched hosts cannot account for stays bad."""
        ((vm_id, new),) = delta
        bad_vms = state.bad_vms
        if bad_vms and (len(bad_vms) > 1 or vm_id not in bad_vms):
            return False
        bad_hosts = state.bad_hosts
        if bad_hosts > 2:
            return False
        limits = self.limits
        hosts = state.hosts
        memory = self.memory
        max_cpu = limits.max_total_cpu_cap + 1e-9
        max_mem = limits.guest_memory_mb
        max_vms = limits.max_vms_per_host
        old = parent_configuration.placement_of(vm_id)
        src_entry = _ABSENT
        src = None
        if old is not None:
            src = old.host_id
            cpu, mem, vms = hosts.get(src)
            was_bad = cpu > max_cpu or mem > max_mem or vms > max_vms
            remaining = vms - 1
            if remaining == 0:
                src_entry = None
                bad_hosts -= was_bad
            else:
                cpu = round(cpu - old.cpu_cap, 10)
                mem -= memory[vm_id]
                src_entry = (cpu, mem, remaining)
                bad_hosts += (
                    cpu > max_cpu or mem > max_mem or remaining > max_vms
                ) - was_bad
        if new is not None:
            dst = new.host_id
            entry = (
                src_entry
                if dst == src and src_entry is not _ABSENT
                else hosts.get(dst)
            )
            if entry is not None:
                cpu, mem, vms = entry
                was_bad = cpu > max_cpu or mem > max_mem or vms > max_vms
                cpu = round(cpu + new.cpu_cap, 10)
                mem += memory[vm_id]
                vms += 1
            else:
                was_bad = False
                cpu = round(new.cpu_cap, 10)
                mem = memory[vm_id]
                vms = 1
            bad_hosts += (
                cpu > max_cpu or mem > max_mem or vms > max_vms
            ) - was_bad
        bad_vm_count = len(bad_vms)
        under_cap = new is not None and (
            new.cpu_cap < limits.min_vm_cpu_cap - 1e-9
        )
        if under_cap != (vm_id in bad_vms):
            bad_vm_count += 1 if under_cap else -1
        return bad_hosts == 0 and bad_vm_count == 0


#: Actions whose predicted cost depends on the apps placed on the hosts
#: they touch; every other kind's cost is a constant of the action
#: under one workload vector.
_PLACEMENT_KINDS = (MigrateVm, AddReplica, RemoveReplica)

_NO_APPS: frozenset = frozenset()


class _CostMemo:
    """One search's cost-prediction memo, shared by every backend.

    ``CostManager.predict`` reads the configuration only through the
    action's affected applications and affected-host count, so under
    one workload vector a prediction is a pure function of the action
    and, for the placement kinds, the app sets of the hosts it touches.
    Two levels answer a lookup:

    - the fast map, scoped to this search because its keys bake in the
      workload vector: the action's identity, plus the affected hosts'
      app sets for migrate, add-replica and remove-replica.  Values
      hold the action object, pinning its ``id`` while the map lives;
    - the search instance's value memo (``_predict_values``), keyed by
      every input ``predict`` reads: the action's cost key, primary
      app, step count, the primary app's rate, and the app sets.
      Equal keys give float-identical costs across actions, searches
      and workload vectors, so sibling cap steps and same-shape
      migrations collapse to one prediction.  ``_action_facts`` caches
      each action's (cost key, primary app, step count) by ``id``; its
      values pin the action too.

    The A*'s expansion rounds call :meth:`predict_round` once per round;
    every other child (A* seed chains, the walker's) is priced by
    :meth:`predict` through :meth:`_SearchRun.child`.
    """

    __slots__ = (
        "_predict",
        "_catalog",
        "_workloads",
        "_fast",
        "_facts",
        "_values",
        "_host_apps",
    )

    def __init__(
        self, search: "AdaptationSearch", workloads: Mapping[str, float]
    ) -> None:
        self._predict = search.cost_manager.predict
        self._catalog = search.catalog
        self._workloads = workloads
        self._fast: dict = {}
        self._facts = search._action_facts
        self._values = search._predict_values
        #: Host -> app-set maps per parent configuration, for
        #: :meth:`predict` (a walker revisits the same parents).
        self._host_apps: dict[Configuration, dict] = {}

    def host_apps(self, configuration: Configuration) -> dict:
        """Host id -> frozenset of app names placed on it (one
        O(placements) pass; absent hosts are empty)."""
        get = self._catalog.get
        collected: dict[str, set] = {}
        for vm_id, placement in configuration.placement_items():
            collected.setdefault(placement.host_id, set()).add(
                get(vm_id).app_name
            )
        return {host: frozenset(apps) for host, apps in collected.items()}

    @staticmethod
    def _key(
        action: AdaptationAction,
        configuration: Configuration,
        host_apps: Optional[dict],
    ):
        """The fast-map key of ``action`` applied to ``configuration``
        (``host_apps`` may be ``None`` for the non-placement kinds)."""
        kind = type(action)
        if kind is MigrateVm:
            source = configuration.placement_of(action.vm_id).host_id
            return (
                id(action),
                host_apps.get(source, _NO_APPS),
                host_apps.get(action.target_host, _NO_APPS),
            )
        if kind is AddReplica:
            return (id(action), host_apps.get(action.target_host, _NO_APPS))
        if kind is RemoveReplica:
            source = configuration.placement_of(action.vm_id).host_id
            return (id(action), host_apps.get(source, _NO_APPS))
        return id(action)

    def _recall(self, action: AdaptationAction, key) -> tuple:
        """``(value, vkey)`` for a fast-map miss: the value memo's
        prediction (promoted into the fast map; ``None`` on a miss) and
        its value key."""
        facts = self._facts
        known = facts.get(id(action))
        if known is None:
            vm_id = getattr(action, "vm_id", None)
            primary = (
                self._catalog.get(vm_id).app_name
                if vm_id is not None
                else getattr(action, "app_name", None)
            )
            if len(facts) >= _ROUND_ACTION_CACHE_LIMIT:
                facts.clear()
            facts[id(action)] = known = (
                action,
                action.cost_key(self._catalog),
                primary,
                getattr(action, "count", 1),
            )
        _, cost_key, primary, count = known
        rate = (
            self._workloads.get(primary, 0.0) if primary is not None else 0.0
        )
        # Tuple fast keys carry the app sets in slots 1+; the two
        # value-key shapes (tuple-led vs class-led) never collide.
        if type(key) is tuple:
            vkey = (cost_key, primary, count, rate) + key[1:]
        else:
            vkey = (type(action), cost_key, primary, count, rate)
        value = self._values.get(vkey)
        if value is not None:
            self._fast[key] = (action, value)
        return value, vkey

    def _store(self, action, key, vkey, predicted: PredictedCost) -> None:
        values = self._values
        if len(values) >= _ROUND_ACTION_CACHE_LIMIT:
            values.clear()
        values[vkey] = predicted
        self._fast[key] = (action, predicted)

    def predict(
        self, action: AdaptationAction, configuration: Configuration
    ) -> PredictedCost:
        """One (pre-validated) action's prediction; host -> app-set
        maps are built only for the placement kinds."""
        host_apps = None
        if type(action) in _PLACEMENT_KINDS:
            host_apps = self._host_apps.get(configuration)
            if host_apps is None:
                host_apps = self.host_apps(configuration)
                self._host_apps[configuration] = host_apps
        key = self._key(action, configuration, host_apps)
        entry = self._fast.get(key)
        if entry is not None:
            value = entry[1]
        else:
            value, vkey = self._recall(action, key)
            if value is None:
                value = self._predict(action, configuration, self._workloads)
                self._store(action, key, vkey, value)
                if _telemetry.enabled:
                    _telemetry.registry.counter("costmodel.predictions").inc()
                return value
        if _telemetry.enabled:
            _telemetry.registry.counter("costmodel.memo_hits").inc()
        return value

    def predict_round(
        self,
        configuration: Configuration,
        actions: list,
        expired: Callable[[], bool],
    ) -> list:
        """Predictions for one expansion round's kept (pre-validated)
        actions: hits resolve locally and only the misses reach
        ``CostManager.predict``.  ``expired`` is asked once, before the
        misses are predicted; returns ``[]`` when it says no deadline
        budget is left, mirroring a fully aborted round."""
        host_apps = self.host_apps(configuration)
        key_of = self._key
        fast_get = self._fast.get
        recall = self._recall
        results: list = [None] * len(actions)
        misses: list = []
        for i, action in enumerate(actions):
            key = key_of(action, configuration, host_apps)
            entry = fast_get(key)
            if entry is not None:
                results[i] = entry[1]
                continue
            value, vkey = recall(action, key)
            if value is None:
                misses.append((i, action, key, vkey))
            else:
                results[i] = value
        if misses:
            if expired():
                return []
            predict = self._predict
            workloads = self._workloads
            with _phases.phase("score"):
                predicted_list = [
                    predict(action, configuration, workloads)
                    for _, action, _, _ in misses
                ]
            for (i, action, key, vkey), predicted in zip(
                misses, predicted_list
            ):
                results[i] = predicted
                self._store(action, key, vkey, predicted)
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter("costmodel.predictions").inc(len(misses))
            registry.counter("costmodel.memo_hits").inc(
                len(actions) - len(misses)
            )
        return results


class _SearchRun:
    """One search's shared context, built by both backends.

    Construction runs the preamble every search shares: the Perf-Pwr
    ideal (projected onto the scope of a 1st-level controller), the
    current configuration's steady estimate and Eq. 3 null value, the
    watchdog state, and — only while telemetry is on — the provenance
    collector and the phase profile (installed last, so the ideal's own
    work stays outside the search's phases).  :meth:`prepare` adds the
    evaluation scaffolding once the search is past its early return.
    On top sit the child arithmetic both backends price plans with
    (:meth:`steady`, :meth:`bound`, :meth:`candidate_value`,
    :meth:`accrue`, :meth:`child_configuration`, :meth:`child`), the
    direct-plan seeds (:meth:`seed_targets`, :meth:`seed_chain`) and
    :meth:`finish`, the one funnel that builds the
    :class:`SearchOutcome` and emits the search's telemetry record.
    """

    __slots__ = (
        "search",
        "settings",
        "current",
        "workloads",
        "wkey",
        "ideal",
        "ideal_rate",
        "window",
        "current_estimate",
        "current_rate",
        "null_value",
        "wall_start",
        "deadline",
        "deadline_hit",
        "collector",
        "profile",
        "weights",
        "ideal_caps",
        "durations",
        "rate_gap",
        "basis",
        "costs",
        "root",
        "rate_memo",
    )

    def __init__(
        self,
        search: "AdaptationSearch",
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        settings: SearchSettings,
    ) -> None:
        self.wall_start = time.perf_counter()
        self.search = search
        self.settings = settings
        self.current = current
        self.workloads = workloads
        estimator = search.estimator
        self.wkey = estimator.workload_key(workloads)
        ideal = search.perf_pwr.optimize(workloads)
        if search.scope_hosts is not None:
            ideal = search._project_ideal(current, ideal, workloads)
        self.ideal = ideal
        self.ideal_rate = ideal.ideal_rate
        self.window = max(control_window, 0.0)
        self.current_estimate = estimator.estimate(
            current, workloads, key=self.wkey
        )
        self.current_rate = self.current_estimate.total_rate
        #: Eq. 3 value of keeping the current configuration.
        self.null_value = self.window * self.current_rate
        self.deadline = settings.deadline_seconds
        self.deadline_hit = False
        self.collector = (
            ProvenanceCollector()
            if _telemetry.enabled and _telemetry.provenance
            else None
        )
        self.profile = _phases.PhaseProfile() if _telemetry.enabled else None
        if self.profile is not None:
            _phases.set_profile(self.profile)
        self.basis: Optional[_SearchBasis] = None
        #: Point utility rates by input value, for :meth:`accrue` (see
        #: ``UtilityEstimator.transient_rates``): valid for one search,
        #: whose workload vector and utility model stay fixed.
        self.rate_memo: dict = {}

    def prepare(self, incremental: bool) -> None:
        """The evaluation scaffolding: the distance basis, the
        cost-to-go durations and rate gap, the cost memo and the root
        vertex — plus, with ``incremental``, the primed estimator and
        the per-VM :class:`_SearchBasis` the delta path runs on."""
        search = self.search
        self.weights, self.ideal_caps = search._ideal_distance_basis(
            self.ideal
        )
        # Guidance potential: estimated seconds of adaptation still
        # needed to reach the ideal configuration, priced at the gap
        # between the ideal rate and the rate accrued while adapting.
        # This tightens the cost-to-go of intermediates (the raw ideal
        # bound assumes instant, free adaptation) so the search
        # converges instead of flooding the near-zero-cost frontier.
        self.durations = search._togo_durations(self.workloads)
        self.rate_gap = self.settings.togo_discount * max(
            self.ideal_rate - self.current_rate,
            0.1 * abs(self.ideal_rate),
            1e-9,
        )
        self.costs = _CostMemo(search, self.workloads)
        root = _Vertex(
            configuration=self.current,
            actions=(),
            accrued=0.0,
            elapsed=0.0,
            is_candidate=self.current.is_candidate(
                search.catalog, search.limits
            ),
            steady=self.current_estimate,
        )
        if incremental:
            search.estimator.prime(self.current, self.workloads, key=self.wkey)
            self.basis = _SearchBasis(
                search.catalog,
                search.limits,
                self.ideal.configuration,
                self.weights,
                self.ideal_caps,
                self.durations,
            )
            root.state = self.basis.full_state(self.current)
        self.root = root

    def expired(self) -> bool:
        """Cooperative watchdog check (one clock read; without a
        deadline no reads at all, keeping decisions deterministic)."""
        if self.deadline is None or self.deadline_hit:
            return self.deadline_hit
        if time.perf_counter() - self.wall_start >= self.deadline:
            self.deadline_hit = True
        return self.deadline_hit

    # -- Eq. 3 arithmetic ------------------------------------------------

    def steady(self, vertex: _Vertex) -> SteadyEstimate:
        """Steady estimate of a vertex, memoized on it: the delta path
        off its parent's solver state when it has lineage, else a full
        estimate."""
        estimate = vertex.steady
        if estimate is None:
            if vertex.parent_configuration is not None:
                estimate = self.search.estimator.estimate_child(
                    vertex.parent_configuration,
                    vertex.configuration,
                    vertex.changed_vms,
                    self.workloads,
                    key=self.wkey,
                )
            else:
                estimate = self.search.estimator.estimate(
                    vertex.configuration, self.workloads, key=self.wkey
                )
            vertex.steady = estimate
        return estimate

    def bound(self, vertex: _Vertex) -> float:
        """Admissible Eq. 3 bound (the ideal rate over the remainder)."""
        remaining = max(0.0, self.window - vertex.elapsed)
        return remaining * self.ideal_rate + vertex.accrued

    def candidate_value(
        self, vertex: _Vertex, steady: SteadyEstimate
    ) -> float:
        """True Eq. 3 value of committing to a candidate whose steady
        estimate is ``steady``."""
        remaining = max(0.0, self.window - vertex.elapsed)
        return remaining * steady.total_rate + vertex.accrued

    def accrue(
        self,
        parent: _Vertex,
        predicted: PredictedCost,
        parent_steady: SteadyEstimate,
    ) -> tuple[float, float]:
        """``(accrued, elapsed)`` of a child of ``parent`` whose action
        costs ``predicted``.  Accrual is truncated at the window's end
        and capped at the ideal rate: otherwise plans longer than the
        window (or transient rates above the heuristic) would make
        cyclic action sequences look profitable."""
        perf_rate, power_rate = self.search.estimator.transient_rates(
            parent_steady,
            self.workloads,
            predicted.rt_delta,
            predicted.power_delta_watts,
            self.rate_memo,
        )
        effective = min(
            predicted.duration, max(0.0, self.window - parent.elapsed)
        )
        transient_rate = min(perf_rate + power_rate, self.ideal_rate)
        return (
            parent.accrued + effective * transient_rate,
            parent.elapsed + predicted.duration,
        )

    def child_configuration(
        self,
        configuration: Configuration,
        action: AdaptationAction,
        delta: tuple,
    ) -> Configuration:
        """The configuration ``action`` leads to from ``configuration``,
        built from the placement ``delta`` that validated it: one
        ``replace``/``remove`` for a one-VM delta, ``apply`` for the
        actions that move no VM (null and host power), which raises
        ``ActionError`` when the action does not apply."""
        if len(delta) == 1:
            ((vm_id, placement),) = delta
            if placement is None:
                return configuration.remove(vm_id)
            return configuration.replace(vm_id, placement)
        search = self.search
        return action.apply(configuration, search.catalog, search.limits)

    def child(
        self,
        parent: _Vertex,
        action: AdaptationAction,
        delta: tuple,
        parent_steady: SteadyEstimate,
    ) -> _Vertex:
        """The incremental child for one action whose placement
        ``delta`` validated it: the configuration and state come
        straight from the delta, the cost through the memo."""
        parent_configuration = parent.configuration
        configuration = self.child_configuration(
            parent_configuration, action, delta
        )
        state = self.basis.child_state(
            parent_configuration, parent.state, delta
        )
        accrued, elapsed = self.accrue(
            parent,
            self.costs.predict(action, parent_configuration),
            parent_steady,
        )
        return _Vertex(
            configuration=configuration,
            actions=parent.actions + (action,),
            accrued=accrued,
            elapsed=elapsed,
            is_candidate=self.basis.is_candidate(state),
            state=state,
            parent_configuration=parent_configuration,
            changed_vms=frozenset(vm_id for vm_id, _ in delta),
        )

    # -- direct-plan seeds -------------------------------------------------

    def seed_targets(self) -> list[Configuration]:
        """The ideal configuration and each distinct per-host-count
        Perf-Pwr alternative (none without ``seed_with_plan``).  Seeding
        the search with the direct plans to them (and all their
        prefixes) installs good incumbents — full and partial
        adaptations — that the search must beat."""
        if not self.settings.seed_with_plan:
            return []
        ideal = self.ideal.configuration
        return [ideal] + [
            alternative.configuration
            for alternative in self.ideal.alternatives
            if alternative.configuration != ideal
        ]

    def seed_chain(
        self,
        target: Configuration,
        build: Callable[[_Vertex, AdaptationAction], Optional[_Vertex]],
    ) -> Iterator[_Vertex]:
        """The valid prefix of the planner's direct plan to ``target``,
        yielded one child at a time (each before the next is built);
        ``build(parent, action)`` returns the child or ``None`` when the
        action does not apply."""
        search = self.search
        vertex = self.root
        for action in plan_transition(
            self.current, target, search.catalog, search.limits
        ):
            if action.kind not in self.settings.allowed_kinds:
                return  # keep the valid prefix only
            vertex = build(vertex, action)
            if vertex is None:
                return
            yield vertex

    def finish(
        self,
        action_chain: tuple,
        final_configuration: Configuration,
        predicted_utility: float,
        *,
        expansions: int,
        decision_seconds: float,
        generated: int = 0,
        pruned: int = 0,
        candidates: int = 0,
        pruning_activated: bool = False,
        optimal: bool = False,
        incremental: bool = True,
        early_return: bool = False,
        deadline_aborted: bool = False,
        frontier: tuple = (0, None),
        strategy: Optional[str] = None,
        tallies: Optional[dict] = None,
    ) -> SearchOutcome:
        """Construct the outcome — every return path of every backend
        funnels through here, so ``wall_seconds`` is measured from the
        search's entry and one search emits exactly one telemetry
        record.

        ``action_chain`` is the winner's full chain (``NullAction``
        included, which the outcome's plan drops) for the provenance
        replay.  ``frontier`` is the open set's ``(size, best
        priority)`` noted when the deadline cut the search short.  A
        walker names itself in ``strategy`` and passes its own
        ``tallies``; they land in ``search.strategy.<name>.*`` counters
        and the provenance record."""
        if self.profile is not None:
            _phases.set_profile(None)
        settings = self.settings
        window = self.window
        ideal_rate = self.ideal.ideal_rate
        outcome = SearchOutcome(
            actions=tuple(
                action
                for action in action_chain
                if not isinstance(action, NullAction)
            ),
            final_configuration=final_configuration,
            predicted_utility=predicted_utility,
            ideal=self.ideal,
            expansions=expansions,
            decision_seconds=decision_seconds,
            wall_seconds=time.perf_counter() - self.wall_start,
            pruning_activated=pruning_activated,
            optimal=optimal,
            deadline_aborted=deadline_aborted,
        )
        collector = self.collector
        if collector is not None and deadline_aborted:
            collector.note_deadline(*frontier)
        if not _telemetry.enabled:
            return outcome
        registry = _telemetry.registry
        registry.counter("search.runs").inc()
        if deadline_aborted:
            registry.counter("watchdog.deadline_aborts").inc()
            _telemetry.tracer.event(
                "watchdog.deadline_abort",
                deadline=settings.deadline_seconds,
                wall_seconds=outcome.wall_seconds,
                expansions=expansions,
                actions=len(outcome.actions),
            )
        registry.counter("search.expansions").inc(expansions)
        registry.counter("search.children_generated").inc(generated)
        registry.counter("search.children_pruned").inc(pruned)
        registry.counter("search.candidates").inc(candidates)
        if early_return:
            registry.counter("search.early_returns").inc()
        if strategy is not None:
            prefix = f"search.strategy.{strategy}"
            registry.counter(f"{prefix}.iterations").inc(expansions)
            registry.counter(f"{prefix}.evaluations").inc(generated)
            for key, value in (tallies or {}).items():
                if isinstance(value, int) and value > 0:
                    registry.counter(f"{prefix}.{key}").inc(value)
        # How far the admissible bound over-estimated the utility the
        # committed plan actually promises.
        heuristic_gap = window * ideal_rate - predicted_utility
        registry.gauge("search.heuristic_gap").set(heuristic_gap)
        _telemetry.tracer.event(
            "search.run",
            dur=outcome.wall_seconds,
            self_aware=settings.self_aware,
            incremental=incremental,
            expansions=expansions,
            children_generated=generated,
            children_pruned=pruned,
            candidates=candidates,
            pruning_activated=pruning_activated,
            decision_seconds=decision_seconds,
            predicted_utility=predicted_utility,
            actions=len(outcome.actions),
            optimal=optimal,
            early_return=early_return,
        )
        if self.profile is not None and self.profile:
            _telemetry.tracer.event(
                "profile.phases",
                phases=self.profile.snapshot(),
                wall_seconds=outcome.wall_seconds,
                expansions=expansions,
            )
        if collector is None:
            return outcome
        search = self.search
        try:
            totals, per_action = plan_breakdown(
                search.estimator,
                search.catalog,
                search.limits,
                search.cost_manager,
                self.workloads,
                self.wkey,
                window,
                ideal_rate,
                self.current,
                action_chain,
            )
        except Exception:
            # Provenance must never take a decision down; fall back to
            # a coarse, un-decomposed record.
            totals = {
                "steady": predicted_utility,
                "transient": 0.0,
                "total": predicted_utility,
            }
            per_action = []
        search_stats = {
            "expansions": expansions,
            "children_generated": generated,
            "children_pruned": pruned,
            "candidates": candidates,
            "pruning_activated": pruning_activated,
            "optimal": optimal,
            "early_return": early_return,
            "deadline_aborted": deadline_aborted,
            "self_aware": settings.self_aware,
            "incremental": incremental,
            "wall_seconds": outcome.wall_seconds,
            "decision_seconds": decision_seconds,
        }
        if strategy is not None:
            search_stats["strategy"] = strategy
            search_stats.update(tallies or {})
        outcome.provenance = collector.build(
            utility={
                **totals,
                "predicted_utility": predicted_utility,
                "baseline_utility": self.null_value,
                "delta_vs_current": predicted_utility - self.null_value,
                "ideal_bound": window * ideal_rate,
                "heuristic_gap": heuristic_gap,
            },
            chosen_actions=tuple(
                type(action).__name__ for action in outcome.actions
            ),
            predicted_utility=predicted_utility,
            search=search_stats,
            per_action=per_action,
        )
        return outcome


class _AStar:
    """The paper's exact Naive / Self-Aware A* (Algorithm 1) over one
    :class:`_SearchRun`.

    The open set is a heap of ``(-priority, -depth, -sequence, entry)``
    tuples; ties break toward deeper vertices (then recency) so plans
    complete instead of re-exploring orderings of the same commuting
    actions.  An entry is a :class:`_Vertex` — the root, the seed
    chains, terminal twins and every child of the full path — or the
    lazy form of an expansion-round child: the flat payload tuple
    ``(key, priority, utility, accrued, elapsed, action, delta,
    lineage, twin)``, where ``lineage`` is the round's shared ``(parent
    configuration, parent actions, parent state)`` and ``twin`` the
    candidate's terminal twin (or ``None``).  Most children are never
    popped, so neither their ``Configuration`` nor their state is built
    until :meth:`materialize` turns a popped payload into a vertex.
    Entries are deduplicated on ``(key, terminal)``: the codec's byte
    key on the incremental path, the configuration on the full path.
    """

    __slots__ = (
        "run",
        "settings",
        "incremental",
        "heap",
        "best_priority",
        "best_terminal",
        "counter",
        "candidates",
        "budget",
        "budget_rate",
        "codec",
        "abasis",
    )

    def __init__(
        self,
        run: _SearchRun,
        expected_utility: Optional[float],
        expected_rate: Optional[float],
    ) -> None:
        self.run = run
        self.settings = run.settings
        self.incremental = run.settings.incremental
        self.heap: list = []
        self.best_priority: dict = {}
        self.best_terminal: Optional[_Vertex] = None
        self.counter = itertools.count()
        self.candidates = 0
        #: Algorithm 1's ``UH``: the utility budget the search's own
        #: cost may consume before pruning starts.
        self.budget = (
            expected_utility
            if expected_utility is not None
            else run.window * run.ideal_rate
        )
        self.budget_rate = (
            expected_rate if expected_rate is not None else run.ideal_rate
        )

    def search(self) -> SearchOutcome:
        run = self.run
        settings = self.settings
        if run.ideal.configuration == run.current:
            return run.finish(
                (),
                run.current,
                run.null_value,
                expansions=0,
                decision_seconds=PER_VERTEX_SECONDS,
                optimal=True,
                incremental=self.incremental,
                early_return=True,
            )
        run.prepare(self.incremental)
        root = run.root
        if self.incremental:
            # The codec spans the whole cluster, so every configuration
            # the search can reach encodes.
            statics = run.search._ensure_array_statics()
            self.codec = statics.codec
            self.abasis = ArrayBasis(statics, run.basis)
            root.key = self.codec.encode_key(run.current)
        self.value(root)
        self.push_with_terminal(root)
        for target in run.seed_targets():
            for child in run.seed_chain(target, self.seed_child):
                self.push_with_terminal(child)

        heap = self.heap
        best_priority = self.best_priority
        counter = self.counter
        heappop = heapq.heappop
        heappush = heapq.heappush
        max_expansions = settings.max_expansions
        current_rate = run.current_rate
        search_power_rate = -run.search.estimator.utility.power_utility_rate(
            SEARCH_WATTS_DELTA
        )
        delay_threshold = DELAY_THRESHOLD_FRACTION * run.window
        expansions = 0
        generated = 0
        pruned = 0
        # Algorithm 1's T, UT and UpwrT.
        elapsed_search = 0.0
        accrued_current = 0.0
        accrued_search_power = 0.0
        pruning = False
        result: Optional[_Vertex] = None
        # Hoisted once: per-expansion wall timing only when telemetry
        # is on (two clock reads per expansion otherwise saved).
        expand_hist = (
            _telemetry.registry.histogram("search.expand_seconds")
            if _telemetry.enabled
            else None
        )
        while heap:
            neg_priority, _, _, vertex = heappop(heap)
            if type(vertex) is tuple:
                # Check staleness on the byte key first so stale pops
                # never pay materialization.
                if (
                    best_priority.get((vertex[0], False), -math.inf)
                    > -neg_priority + 1e-12
                ):
                    continue
                vertex = self.materialize(vertex)
            elif (
                best_priority.get(
                    (
                        vertex.key
                        if vertex.key is not None
                        else vertex.configuration,
                        vertex.terminal,
                    ),
                    -math.inf,
                )
                > -neg_priority + 1e-12
            ):
                continue  # stale heap entry
            if vertex.terminal:
                result = vertex
                break
            if expansions >= max_expansions or run.expired():
                # The watchdog check runs once per expansion (and again
                # before a round's cost predictions), so the
                # wall time overshoots the deadline by at most one
                # expansion round.
                result = self.best_terminal
                break
            expansions += 1
            if expand_hist is not None:
                expand_t0 = time.perf_counter()
            if len(vertex.actions) >= MAX_PLAN_ACTIONS:
                continue
            children, tick, cut = self.expand(vertex, pruning)
            generated += len(children)
            pruned += cut
            if expand_hist is not None:
                expand_hist.observe(time.perf_counter() - expand_t0)
            if run.deadline_hit:
                # The deadline expired before this round's cost
                # predictions; its children are discarded and the
                # search commits to the best incumbent found in time.
                result = self.best_terminal
                break

            # Self-aware accounting (Algorithm 1's T, UT, UpwrT, UH).
            elapsed_search += tick
            accrued_current += tick * current_rate
            accrued_search_power += tick * search_power_rate
            self.budget -= tick * self.budget_rate
            if settings.self_aware and not pruning:
                if (
                    accrued_current + accrued_search_power
                ) >= self.budget or elapsed_search >= delay_threshold:
                    pruning = True
            if (
                settings.self_aware
                and self.best_terminal is not None
                and elapsed_search >= HARD_STOP_FACTOR * delay_threshold
            ):
                # Self-awareness in the limit: the decision itself has
                # become too expensive — commit to the best incumbent.
                result = self.best_terminal
                break

            # Payloads take an inlined ``push`` (same dedup rule and
            # heap shape; the depth tie-breaker is a round constant),
            # then their twin, if any; vertices take the full path.
            child_rank = -(len(vertex.actions) + 1)
            with _phases.phase("frontier"):
                for child in children:
                    if type(child) is not tuple:
                        self.push_with_terminal(child)
                        continue
                    pkey = (child[0], False)
                    known = best_priority.get(pkey)
                    priority = child[1]
                    if known is None or known < priority - 1e-12:
                        best_priority[pkey] = priority
                        heappush(
                            heap,
                            (-priority, child_rank, -next(counter), child),
                        )
                    if child[8] is not None:
                        self.push_terminal(child[8])

        if result is None:
            result = self.best_terminal
        if result is None:
            # Nothing reachable improved on staying put; keep current.
            plan = ((), run.current, run.null_value)
        else:
            plan = (result.actions, result.configuration, result.utility)
        return run.finish(
            *plan,
            expansions=expansions,
            decision_seconds=max(PER_VERTEX_SECONDS, elapsed_search),
            generated=generated,
            pruned=pruned,
            candidates=self.candidates,
            pruning_activated=pruning,
            optimal=expansions < max_expansions and not run.deadline_hit,
            incremental=self.incremental,
            deadline_aborted=run.deadline_hit,
            frontier=(len(heap), -heap[0][0] if heap else None),
        )

    # -- the open set ----------------------------------------------------

    def value(self, vertex: _Vertex) -> None:
        """An intermediate's utility (the admissible bound) and
        priority: the bound minus the guidance potential.  The potential
        is a *constant* per configuration (it must not depend on the
        path's elapsed time, or cycles of cheap actions could raise
        their own priority by shrinking the remaining window)."""
        run = self.run
        vertex.utility = run.bound(vertex)
        if run.basis is not None:
            seconds = run.basis.togo_seconds(
                vertex.state, vertex.configuration
            )
        else:
            seconds = run.search._togo_seconds(
                vertex.configuration, run.ideal.configuration, run.durations
            )
        vertex.priority = (
            vertex.utility
            - self.settings.guidance_weight * seconds * run.rate_gap
        )

    def push(self, vertex: _Vertex) -> None:
        key = (
            vertex.key if vertex.key is not None else vertex.configuration,
            vertex.terminal,
        )
        known = self.best_priority.get(key)
        if known is not None and known >= vertex.priority - 1e-12:
            return
        self.best_priority[key] = vertex.priority
        heapq.heappush(
            self.heap,
            (
                -vertex.priority,
                -len(vertex.actions),
                -next(self.counter),
                vertex,
            ),
        )
        if vertex.terminal and (
            self.best_terminal is None
            or vertex.utility > self.best_terminal.utility
        ):
            self.best_terminal = vertex

    def push_terminal(self, terminal: _Vertex) -> None:
        """Value a candidate's terminal twin at its true Eq. 3 utility
        (popping it commits to the plan) and push it."""
        run = self.run
        self.candidates += 1
        terminal.utility = run.candidate_value(terminal, run.steady(terminal))
        terminal.priority = terminal.utility
        if run.collector is not None:
            run.collector.note_candidate(terminal.utility, terminal.actions)
        self.push(terminal)

    def push_with_terminal(self, vertex: _Vertex) -> None:
        self.push(vertex)
        if vertex.is_candidate:
            self.push_terminal(
                _Vertex(
                    configuration=vertex.configuration,
                    actions=vertex.actions,
                    accrued=vertex.accrued,
                    elapsed=vertex.elapsed,
                    terminal=True,
                    is_candidate=True,
                    parent_configuration=vertex.parent_configuration,
                    changed_vms=vertex.changed_vms,
                    key=vertex.key,
                )
            )

    def materialize(self, payload: tuple) -> _Vertex:
        """A popped expansion-round child becomes a real vertex: its
        configuration (a candidate's twin already holds it) and its
        state are built here, from the parent's and the delta."""
        (
            key,
            priority,
            utility,
            accrued,
            elapsed,
            action,
            delta,
            (parent_configuration, parent_actions, parent_state),
            twin,
        ) = payload
        return _Vertex(
            configuration=(
                twin.configuration
                if twin is not None
                else self.run.child_configuration(
                    parent_configuration, action, delta
                )
            ),
            actions=parent_actions + (action,),
            accrued=accrued,
            elapsed=elapsed,
            utility=utility,
            priority=priority,
            is_candidate=twin is not None,
            state=self.run.basis.child_state(
                parent_configuration, parent_state, delta
            ),
            parent_configuration=parent_configuration,
            changed_vms=frozenset(vm_id for vm_id, _ in delta),
            key=key,
        )

    # -- children --------------------------------------------------------

    def seed_child(
        self, parent: _Vertex, action: AdaptationAction
    ) -> Optional[_Vertex]:
        """One step of a seed chain, valued and keyed."""
        run = self.run
        parent_steady = run.steady(parent)
        if self.incremental:
            search = run.search
            try:
                delta = action.placement_delta(
                    parent.configuration, search.catalog, search.limits
                )
            except ActionError:
                return None
            child = run.child(parent, action, delta, parent_steady)
            child.key = self.codec.encode_key(child.configuration)
        else:
            child = self.full_child(parent, action, parent_steady)
            if child is None:
                return None
        self.value(child)
        return child

    def full_child(
        self,
        parent: _Vertex,
        action: AdaptationAction,
        parent_steady: SteadyEstimate,
        new_config: Optional[Configuration] = None,
    ) -> Optional[_Vertex]:
        """The full path's child (the oracle): applied, checked and
        priced from scratch, or ``None`` if the action does not apply.
        Pruned rounds pass the already-applied ``new_config``."""
        search = self.run.search
        if new_config is None:
            try:
                new_config = action.apply(
                    parent.configuration, search.catalog, search.limits
                )
            except ActionError:
                return None
        accrued, elapsed = self.run.accrue(
            parent,
            search.cost_manager.predict(
                action, parent.configuration, self.run.workloads
            ),
            parent_steady,
        )
        return _Vertex(
            configuration=new_config,
            actions=parent.actions + (action,),
            accrued=accrued,
            elapsed=elapsed,
            is_candidate=new_config.is_candidate(
                search.catalog, search.limits
            ),
        )

    def expand(
        self, vertex: _Vertex, pruning: bool
    ) -> tuple[list, float, int]:
        """One expansion: ``(children, virtual seconds, children pruned
        away)``.  Once pruning is on, only the :data:`PRUNE_FRACTION` of
        children closest to the ideal are evaluated — the paper's
        "decreasing search width of each vertex"."""
        run = self.run
        search = run.search
        with _phases.phase("enumerate"):
            blocks: Optional[list] = [] if self.incremental else None
            possible = search._enumerate_actions(
                vertex.configuration, run.ideal_caps, blocks_out=blocks
            )
        parent_steady = run.steady(vertex)
        prune = pruning and len(possible) > 1
        if not self.incremental:
            return self.full_round(vertex, possible, parent_steady, prune)
        result = self.round(vertex, blocks, parent_steady, prune)
        # A cold parent (solver state evicted, or first touch under this
        # workload key) is solved once, so its candidate children's
        # terminal twins re-solve only their action's tiers.
        estimator = search.estimator
        if not estimator.has_state(vertex.configuration, key=run.wkey):
            estimator.prime(vertex.configuration, run.workloads, key=run.wkey)
        return result

    def full_round(
        self,
        vertex: _Vertex,
        possible: list,
        parent_steady: SteadyEstimate,
        prune: bool,
    ) -> tuple[list, float, int]:
        """The full path's expansion: one :meth:`full_child` per action
        (ranked by ``_distance`` and cut when pruned)."""
        run = self.run
        search = run.search
        tick = PER_VERTEX_SECONDS
        children: list = []
        cut = 0
        if prune:
            reachable: list[tuple] = []
            for order, action in enumerate(possible):
                try:
                    new_config = action.apply(
                        vertex.configuration, search.catalog, search.limits
                    )
                except ActionError:
                    continue
                distance = search._distance(
                    new_config, run.ideal_caps, run.weights, run.ideal
                )
                reachable.append((distance, order, action, new_config))
            tick += len(reachable) * PER_CHILD_APPLY_SECONDS
            reachable.sort(key=itemgetter(0, 1))
            keep = max(1, math.ceil(PRUNE_FRACTION * len(reachable)))
            if len(reachable) > keep:
                cut = len(reachable) - keep
                if run.collector is not None:
                    run.collector.note_pruned(cut, reachable[keep][0])
            with _phases.phase("merge"):
                for _, _, action, new_config in reachable[:keep]:
                    children.append(
                        self.full_child(
                            vertex, action, parent_steady, new_config
                        )
                    )
            per_child = PER_CHILD_EVAL_SECONDS
        else:
            for action in possible:
                child = self.full_child(vertex, action, parent_steady)
                if child is not None:
                    children.append(child)
            per_child = PER_CHILD_APPLY_SECONDS + PER_CHILD_EVAL_SECONDS
        for child in children:
            self.value(child)
        tick += len(children) * per_child
        return children, tick, cut

    def round(
        self,
        vertex: _Vertex,
        blocks: list,
        parent_steady: SteadyEstimate,
        prune: bool,
    ) -> tuple[list, float, int]:
        """The incremental path's expansion (DESIGN.md §13): the same
        children, in the same order and with the same float values, as
        the full path's per-child loop.

        A pruned round ranks every valid column by distance (off the
        parent's prefix sums of ``cap_terms``), sorts by (distance,
        enumeration order) and keeps the :data:`PRUNE_FRACTION` closest;
        an unpruned round keeps every valid column.  The cost memo
        prices the kept actions, and :meth:`round_children` makes each
        a payload."""
        run = self.run
        abasis = self.abasis
        state = vertex.state
        parent_config = vertex.configuration
        columns = abasis.round_values(blocks, parent_config)
        if _telemetry.enabled:
            _telemetry.registry.counter("search.rounds").inc()
        tick = PER_VERTEX_SECONDS
        cut = 0
        if prune:
            n_valid = len(columns)
            tick += n_valid * PER_CHILD_APPLY_SECONDS
            distances = abasis.distances(
                state, columns, abasis.parent_rows(state.cap_terms)
            )
            # ``sorted`` is stable: ties keep enumeration order.
            ranked = sorted(range(n_valid), key=distances.__getitem__)
            keep = max(1, math.ceil(PRUNE_FRACTION * n_valid))
            if n_valid > keep:
                cut = n_valid - keep
                if run.collector is not None:
                    run.collector.note_pruned(cut, distances[ranked[keep]])
            columns = [columns[i] for i in ranked[:keep]]
            per_child = PER_CHILD_EVAL_SECONDS
        else:
            per_child = PER_CHILD_APPLY_SECONDS + PER_CHILD_EVAL_SECONDS
        predictions = run.costs.predict_round(
            parent_config, [column[0] for column in columns], run.expired
        )
        with _phases.phase("merge"):
            children = (
                self.round_children(
                    vertex, parent_steady, columns, predictions
                )
                if columns and predictions
                else []
            )
        tick += len(children) * per_child
        return children, tick, cut

    def round_children(
        self,
        vertex: _Vertex,
        parent_steady: SteadyEstimate,
        columns: list,
        predictions: list,
    ) -> list:
        """The payloads of one :meth:`round`'s kept ``columns``, whose
        actions cost ``predictions``: each priced by
        :meth:`_SearchRun.accrue`, valued at the admissible bound
        (:meth:`_SearchRun.bound`) and ranked as :meth:`value` ranks a
        vertex.  A candidate's payload carries its terminal twin, whose
        configuration is built here: the twin's steady estimate needs
        the real object."""
        run = self.run
        basis = run.basis
        abasis = self.abasis
        state = vertex.state
        parent_config = vertex.configuration
        parent_actions = vertex.actions
        parent_key = vertex.key
        window = run.window
        ideal_rate = run.ideal_rate
        rate_gap = run.rate_gap
        guidance_weight = self.settings.guidance_weight
        accrue = run.accrue
        child_configuration = run.child_configuration
        togo = abasis.sel_reductions(
            state,
            columns,
            abasis.parent_rows(state.togo_terms),
            len(basis.ideal_powered - parent_config.powered_hosts),
            len(parent_config.powered_hosts - basis.ideal_powered),
        )
        verdicts = abasis.candidacy(state, parent_config, columns)
        keys = abasis.child_keys(columns, parent_key)
        codec = self.codec
        powered_base = 10 * len(codec.vm_ids)
        lineage = (parent_config, parent_actions, state)
        children: list = []
        for (action, delta, _, _), predicted, key, seconds, candidate in zip(
            columns, predictions, keys, togo, verdicts
        ):
            if delta:
                configuration = (
                    child_configuration(parent_config, action, delta)
                    if candidate
                    else None
                )
            else:
                # Host power actions move no VM: they share the parent's
                # state, but their powered set differs — full cost-to-go,
                # and the key edits the host's one powered-flag byte.
                try:
                    configuration = child_configuration(
                        parent_config, action, delta
                    )
                except ActionError:
                    continue
                seconds = basis.togo_seconds(state, configuration)
                candidate = basis.is_candidate(state)
                off = powered_base + codec.host_index[action.host_id]
                key = (
                    parent_key[:off]
                    + (b"\x01" if type(action) is PowerOnHost else b"\x00")
                    + parent_key[off + 1 :]
                )
            accrued, elapsed = accrue(vertex, predicted, parent_steady)
            utility = max(0.0, window - elapsed) * ideal_rate + accrued
            twin = (
                _Vertex(
                    configuration=configuration,
                    actions=parent_actions + (action,),
                    accrued=accrued,
                    elapsed=elapsed,
                    terminal=True,
                    is_candidate=True,
                    parent_configuration=parent_config,
                    changed_vms=frozenset(vm_id for vm_id, _ in delta),
                    key=key,
                )
                if candidate
                else None
            )
            children.append(
                (
                    key,
                    utility - guidance_weight * seconds * rate_gap,
                    utility,
                    accrued,
                    elapsed,
                    action,
                    delta,
                    lineage,
                    twin,
                )
            )
        return children


class AdaptationSearch:
    """Naive / Self-Aware A* over the configuration graph."""

    def __init__(
        self,
        applications: ApplicationSet,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        estimator: UtilityEstimator,
        cost_manager: CostManager,
        perf_pwr: PerfPwrOptimizer,
        host_ids: Sequence[str],
        settings: Optional[SearchSettings] = None,
    ) -> None:
        self.applications = applications
        self.catalog = catalog
        self.limits = limits
        self.estimator = estimator
        self.cost_manager = cost_manager
        self.perf_pwr = perf_pwr
        self.host_ids = tuple(host_ids)
        self.settings = settings or SearchSettings()
        #: When set, the search only acts on VMs placed on (and only
        #: migrates to) these hosts — the 1st-level controller scoping
        #: of the paper's hierarchy.  The ideal configuration is then
        #: projected onto the scope: out-of-scope VMs stay pinned.
        #: ``host_ids`` stays the whole cluster even then: it is the
        #: host universe of the rounds' codec, which must encode
        #: every configuration the search sees, out-of-scope VMs
        #: included.
        self.scope_hosts: Optional[frozenset[str]] = None
        # Interned action objects: actions are immutable value objects
        # drawn from a small universe (VMs x hosts x cap steps), but
        # enumeration runs once per expansion — reuse instead of
        # re-constructing ~100 dataclass instances each time.
        self._action_cache: dict[tuple, AdaptationAction] = {}
        # Enumeration sublists keyed by the per-VM facts they depend
        # on, the sorted order of each powered-host set, and per-tier
        # replica bounds (static for this search's application model).
        self._round_action_cache: dict[tuple, list] = {}
        self._powered_order: dict[frozenset, list] = {}
        self._tier_limits: dict[tuple[str, str], tuple[int, int]] = {}
        # Round-context interning: the (allowed kinds, powered order)
        # pair is constant within an enumeration round, so hashing it
        # once into a small integer keeps the per-VM sublist keys
        # cheap (flat tuples of scalars instead of nested tuples).
        self._ctx_tokens: dict[tuple, int] = {}
        # vm_id -> (app_name, tier_name), static for the catalog.
        self._vm_tier_key: dict[str, tuple[str, str]] = {}
        # Expansion rounds (DESIGN.md §13): the codec and constants,
        # plus per-sublist ActionBlocks cached under the
        # same keys as ``_round_action_cache``.
        self._array_statics: Optional[ArrayStatics] = None
        self._round_block_cache: dict[tuple, object] = {}
        # Cost-prediction memos that outlive one search: per-action facts
        # by id and PredictedCost by value key (see ``_CostMemo``,
        # which every backend's per-search memo reads them through).
        self._action_facts: dict = {}
        self._predict_values: dict = {}

    # -- expansion rounds ------------------------------------------------------

    def _ensure_array_statics(self) -> ArrayStatics:
        """The codec and block constants, built once per search
        instance."""
        statics = self._array_statics
        if statics is None:
            statics = ArrayStatics(self.catalog, self.limits, self.host_ids)
            self._array_statics = statics
        return statics

    # -- public API -----------------------------------------------------------

    def search(
        self,
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        expected_utility: Optional[float] = None,
        expected_rate: Optional[float] = None,
        settings_override: Optional[SearchSettings] = None,
    ) -> SearchOutcome:
        """Find the action sequence maximizing Eq. 3 over the window.

        Runs the backend ``settings.strategy`` names (→
        ``MISTRAL_SEARCH_STRATEGY`` → the default ``"astar"``; see
        DESIGN.md §14): the exact A* (:class:`_AStar`) or the seeded
        anytime walker in :mod:`repro.core.strategies`.

        ``expected_utility``/``expected_rate`` seed the A*'s self-aware
        budget ``UH`` (the paper uses the lowest of recent utilities);
        they default to the ideal utility over the window.
        ``settings_override`` swaps the search settings for this one run
        (the resilience ladder's degraded rung forces a pruned
        self-aware search with a reduced expansion budget).
        """
        # Imported lazily: strategies.py imports this module's classes,
        # so a module-level import here would be circular.
        from repro.core.strategies import (
            AnnealingWalker,
            resolve_strategy_name,
        )

        settings = (
            self.settings if settings_override is None else settings_override
        )
        strategy_name = resolve_strategy_name(settings.strategy)
        run = _SearchRun(self, current, workloads, control_window, settings)
        if strategy_name == "astar":
            outcome = _AStar(run, expected_utility, expected_rate).search()
        else:
            outcome = AnnealingWalker(run).search()
        outcome.strategy = strategy_name
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter(f"search.strategy.{strategy_name}.runs").inc()
            _telemetry.tracer.event(
                "search.strategy",
                strategy=strategy_name,
                wall_seconds=outcome.wall_seconds,
                expansions=outcome.expansions,
                decision_seconds=outcome.decision_seconds,
                predicted_utility=outcome.predicted_utility,
                actions=len(outcome.actions),
                deadline_aborted=outcome.deadline_aborted,
                optimal=outcome.optimal,
            )
        return outcome

    # -- action enumeration ------------------------------------------------------

    def _interned(self, key: tuple, factory, *args) -> AdaptationAction:
        """The cached action object for ``key`` (built on first use)."""
        action = self._action_cache.get(key)
        if action is None:
            action = factory(*args)
            self._action_cache[key] = action
        return action

    def _enumerate_actions(
        self,
        configuration: Configuration,
        target_caps: Optional[Mapping[str, float]] = None,
        blocks_out: Optional[list] = None,
    ) -> list[AdaptationAction]:
        """All one-step actions applicable from ``configuration``.

        When ``target_caps`` (the ideal configuration's caps) is given,
        multi-step cap jumps straight to a VM's ideal cap are also
        generated so the search can take the efficient highway instead
        of interleaving unit steps combinatorially.

        With ``blocks_out`` (the A*'s rounds), the matching ``ActionBlock``
        per emitted sublist is appended to it — cached under the same
        keys as the sublists themselves, so a cache-warm round encodes
        nothing.  Concatenated, the blocks' columns mirror the returned
        action list position for position.
        """
        kinds = self.settings.allowed_kinds
        limits = self.limits
        step = limits.cpu_cap_step
        actions: list[AdaptationAction] = []
        powered_set = configuration.powered_hosts
        powered = self._powered_order.get(powered_set)
        if powered is None:
            powered = sorted(powered_set)
            self._powered_order[powered_set] = powered
        if self.scope_hosts is not None:
            powered = [host for host in powered if host in self.scope_hosts]
        powered_key = tuple(powered)
        # Hash the round-constant context once; per-VM cache keys carry
        # the small interned token instead of the nested tuples.
        ctx_tokens = self._ctx_tokens
        ctx = (kinds, powered_key)
        token = ctx_tokens.get(ctx)
        if token is None:
            token = len(ctx_tokens)
            ctx_tokens[ctx] = token

        # One O(placements) pass instead of a replica_count() scan per
        # candidate action.
        replica_counts: dict[tuple[str, str], int] = {}
        tier_of = self._vm_tier_key
        for placed_vm, _ in configuration.placement_items():
            tier_key = tier_of.get(placed_vm)
            if tier_key is None:
                descriptor = self.catalog.get(placed_vm)
                tier_key = (descriptor.app_name, descriptor.tier_name)
                tier_of[placed_vm] = tier_key
            replica_counts[tier_key] = replica_counts.get(tier_key, 0) + 1

        # A VM's action sublist depends only on the facts in its cache
        # key, so identical (placement, target, powered) situations —
        # which recur constantly across a search's expansion rounds —
        # reuse the interned sublist instead of re-running the checks.
        vm_cache = self._round_action_cache
        if len(vm_cache) >= _ROUND_ACTION_CACHE_LIMIT:
            vm_cache.clear()
        block_cache = None
        statics = None
        if blocks_out is not None:
            statics = self._ensure_array_statics()
            block_cache = self._round_block_cache
            if len(block_cache) >= _ROUND_ACTION_CACHE_LIMIT:
                block_cache.clear()
        tier_limits = self._tier_limits
        for vm_id, placement in configuration.placement_items():
            if (
                self.scope_hosts is not None
                and placement.host_id not in self.scope_hosts
            ):
                continue
            target = (
                target_caps.get(vm_id) if target_caps is not None else None
            )
            if "remove_replica" in kinds:
                tier_key = tier_of[vm_id]
                bounds = tier_limits.get(tier_key)
                if bounds is None:
                    tier = self.applications.get(tier_key[0]).tier(
                        tier_key[1]
                    )
                    bounds = (tier.min_replicas, tier.max_replicas)
                    tier_limits[tier_key] = bounds
                can_remove = replica_counts.get(tier_key, 0) > bounds[0]
            else:
                can_remove = False
            sub_key = (
                token,
                vm_id,
                placement.host_id,
                placement.cpu_cap,
                target,
                can_remove,
            )
            sub = vm_cache.get(sub_key)
            if sub is None:
                sub = []
                if "increase_cpu" in kinds and (
                    placement.cpu_cap + step <= limits.max_total_cpu_cap + 1e-9
                ):
                    sub.append(
                        self._interned(
                            ("inc", vm_id), IncreaseCpu, vm_id, step
                        )
                    )
                if "decrease_cpu" in kinds and (
                    placement.cpu_cap - step >= limits.min_vm_cpu_cap - 1e-9
                ):
                    sub.append(
                        self._interned(
                            ("dec", vm_id), DecreaseCpu, vm_id, step
                        )
                    )
                if target is not None:
                    steps = round((target - placement.cpu_cap) / step)
                    if steps > 1 and "increase_cpu" in kinds:
                        sub.append(
                            self._interned(
                                ("inc", vm_id, steps),
                                IncreaseCpu,
                                vm_id,
                                step,
                                steps,
                            )
                        )
                    elif steps < -1 and "decrease_cpu" in kinds:
                        sub.append(
                            self._interned(
                                ("dec", vm_id, -steps),
                                DecreaseCpu,
                                vm_id,
                                step,
                                -steps,
                            )
                        )
                if "migrate" in kinds:
                    for host_id in powered:
                        if host_id != placement.host_id:
                            sub.append(
                                self._interned(
                                    ("mig", vm_id, host_id),
                                    MigrateVm,
                                    vm_id,
                                    host_id,
                                )
                            )
                if can_remove:
                    sub.append(
                        self._interned(("rem", vm_id), RemoveReplica, vm_id)
                    )
                vm_cache[sub_key] = sub
            actions.extend(sub)
            if blocks_out is not None:
                block = block_cache.get(sub_key)
                if block is None:
                    block = vm_block(
                        statics,
                        sub,
                        vm_id,
                        placement.host_id,
                        placement.cpu_cap,
                        bounds[0] if "remove_replica" in kinds else 1,
                    )
                    block_cache[sub_key] = block
                blocks_out.append(block)

        if "add_replica" in kinds:
            for app in self.applications:
                for tier in app.tiers:
                    count = replica_counts.get((app.name, tier.name), 0)
                    if count >= tier.max_replicas:
                        continue
                    dormant_vm = None
                    ideal_cap = None
                    if target_caps is not None:
                        # The dormant VM that would be activated next.
                        for descriptor in self.catalog.for_tier(
                            app.name, tier.name
                        ):
                            if not configuration.is_placed(descriptor.vm_id):
                                dormant_vm = descriptor.vm_id
                                ideal_cap = target_caps.get(descriptor.vm_id)
                                break
                    add_key = (
                        "add",
                        app.name,
                        tier.name,
                        dormant_vm,
                        ideal_cap,
                        token,
                    )
                    sub = vm_cache.get(add_key)
                    if sub is None:
                        sub = []
                        caps = {REPLICA_CAP}
                        if ideal_cap is not None:
                            caps.add(ideal_cap)
                        for host_id in powered:
                            for cap in sorted(caps):
                                sub.append(
                                    self._interned(
                                        (
                                            "add",
                                            app.name,
                                            tier.name,
                                            host_id,
                                            cap,
                                        ),
                                        AddReplica,
                                        app.name,
                                        tier.name,
                                        host_id,
                                        cap,
                                    )
                                )
                        vm_cache[add_key] = sub
                    actions.extend(sub)
                    if blocks_out is not None:
                        block = block_cache.get(add_key)
                        if block is None:
                            block = add_block(statics, sub, dormant_vm)
                            block_cache[add_key] = block
                        blocks_out.append(block)

        power: list = []
        if "power_on" in kinds:
            power.extend(
                ("pon", host_id, PowerOnHost)
                for host_id in self.host_ids
                if host_id not in configuration.powered_hosts
            )
        if "power_off" in kinds:
            power.extend(
                ("poff", host_id, PowerOffHost)
                for host_id in sorted(configuration.idle_hosts())
            )
        for tag, host_id, factory in power:
            key = (tag, host_id)
            action = self._interned(key, factory, host_id)
            actions.append(action)
            if blocks_out is not None:
                block = block_cache.get(key)
                if block is None:
                    block = block_cache[key] = power_block(action)
                blocks_out.append(block)
        return actions

    # -- scoping ----------------------------------------------------------------

    def _project_ideal(
        self,
        current: Configuration,
        ideal: PerfPwrResult,
        workloads: Mapping[str, float],
    ) -> PerfPwrResult:
        """Project the global ideal onto this controller's host scope.

        Out-of-scope VMs keep their current placement and cap; in-scope
        VMs adopt the ideal's caps, and the ideal's host when that host
        is inside the scope.  Replication and powered hosts stay as
        they are — 1st-level controllers only tune caps and migrate
        locally.
        """
        assert self.scope_hosts is not None
        kinds = self.settings.allowed_kinds
        placements = dict(current.placements)
        for vm_id, placement in current.placements.items():
            if placement.host_id not in self.scope_hosts:
                continue
            ideal_placement = ideal.configuration.placement_of(vm_id)
            if ideal_placement is None:
                if "remove_replica" in kinds:
                    descriptor = self.catalog.get(vm_id)
                    tier_placed = sum(
                        1
                        for peer in self.catalog.for_tier(
                            descriptor.app_name, descriptor.tier_name
                        )
                        if peer.vm_id in placements
                    )
                    if tier_placed > 1:
                        del placements[vm_id]
                continue
            host = (
                ideal_placement.host_id
                if "migrate" in kinds
                and ideal_placement.host_id in self.scope_hosts
                and ideal_placement.host_id in current.powered_hosts
                else placement.host_id
            )
            placements[vm_id] = Placement(host, ideal_placement.cpu_cap)
        if "add_replica" in kinds:
            for descriptor in self.catalog:
                vm_id = descriptor.vm_id
                if vm_id in placements or current.is_placed(vm_id):
                    continue
                ideal_placement = ideal.configuration.placement_of(vm_id)
                if (
                    ideal_placement is not None
                    and ideal_placement.host_id in self.scope_hosts
                    and ideal_placement.host_id in current.powered_hosts
                ):
                    placements[vm_id] = ideal_placement
        projected = Configuration(placements, current.powered_hosts)
        estimate = self.estimator.estimate(projected, workloads)
        return PerfPwrResult(
            configuration=projected,
            perf_rate=estimate.perf_rate,
            power_rate=estimate.power_rate,
            estimate=estimate,
            hosts_used=len(projected.used_hosts()),
            evaluations=0,
        )

    # -- cost-to-go guidance ---------------------------------------------------

    def _togo_durations(
        self, workloads: Mapping[str, float]
    ) -> dict[tuple[str, str], float]:
        """Per-(action family, tier) duration estimates at this workload."""
        durations: dict[tuple[str, str], float] = {}
        mean_rate = (
            sum(workloads.values()) / len(workloads) if workloads else 0.0
        )
        tiers = {
            (tier.name) for app in self.applications for tier in app.tiers
        }
        table = self.cost_manager.table
        for kind in ("migrate", "add_replica", "remove_replica"):
            for tier in tiers:
                try:
                    entry = table.lookup(kind, tier, mean_rate)
                except KeyError:
                    continue
                durations[(kind, tier)] = entry.duration
        for kind in ("power_on", "power_off"):
            try:
                entry = table.lookup(kind, "-", mean_rate)
            except KeyError:
                continue
            durations[(kind, "-")] = entry.duration
        return durations

    def _togo_seconds(
        self,
        configuration: Configuration,
        ideal: Configuration,
        durations: Mapping[tuple[str, str], float],
    ) -> float:
        """Estimated adaptation seconds separating ``configuration``
        from the ideal configuration (migrations, replica changes, cap
        steps, host power cycles)."""
        step = self.limits.cpu_cap_step
        seconds = 0.0
        for descriptor in self.catalog:
            seconds += _togo_vm_term(
                configuration.placement_of(descriptor.vm_id),
                ideal.placement_of(descriptor.vm_id),
                descriptor.tier_name,
                durations,
                step,
                self.limits.min_vm_cpu_cap,
            )
        for host_id in ideal.powered_hosts - configuration.powered_hosts:
            seconds += durations.get(("power_on", "-"), 90.0)
        for host_id in configuration.powered_hosts - ideal.powered_hosts:
            seconds += durations.get(("power_off", "-"), 30.0)
        return seconds

    # -- distance to the ideal configuration ---------------------------------------

    def _ideal_distance_basis(
        self, ideal: PerfPwrResult
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Per-VM weights (relative ideal size) and ideal caps."""
        caps = {
            vm_id: placement.cpu_cap
            for vm_id, placement in ideal.configuration.placements.items()
        }
        total = sum(caps.values()) or 1.0
        weights = {
            descriptor.vm_id: caps.get(descriptor.vm_id, 0.0) / total
            for descriptor in self.catalog
        }
        # Give dormant-in-ideal VMs a small weight so extra replicas
        # still register as distance.
        floor = 0.5 / max(1, len(weights))
        weights = {
            vm_id: max(weight, floor) for vm_id, weight in weights.items()
        }
        return weights, caps

    def _distance(
        self,
        configuration: Configuration,
        ideal_caps: Mapping[str, float],
        weights: Mapping[str, float],
        ideal: PerfPwrResult,
    ) -> float:
        """Weighted cap distance plus placement mismatch (paper §IV-B)."""
        cap_term = 0.0
        matches = 0
        total = 0
        for descriptor in self.catalog:
            vm_id = descriptor.vm_id
            placement = configuration.placement_of(vm_id)
            cap = placement.cpu_cap if placement is not None else 0.0
            ideal_cap = ideal_caps.get(vm_id, 0.0)
            cap_term += weights[vm_id] * (cap - ideal_cap) ** 2
            total += 1
            ideal_placement = ideal.configuration.placement_of(vm_id)
            ideal_host = (
                ideal_placement.host_id if ideal_placement is not None else None
            )
            host = placement.host_id if placement is not None else None
            if host == ideal_host:
                matches += 1
        placement_term = 1.0 - (matches / total if total else 1.0)
        return math.sqrt(cap_term) + placement_term
