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
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

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
    RoundPlan,
    _togo_vm_term,
    add_block,
    replica_tier_counts,
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

#: The cheap, local actions available to 1st-level controllers.
LOCAL_ACTION_KINDS: frozenset[str] = frozenset(
    {"increase_cpu", "decrease_cpu", "migrate"}
)

#: Pluggable search backends (DESIGN.md §14): the paper's exact A*
#: ("astar", the default) and a seeded simulated-annealing walker
#: ("annealing").  Both share the action-enumeration space, the
#: incremental evaluation machinery, and the SearchOutcome shape; only
#: "astar" proves optimality, while the walker is anytime.
STRATEGY_KINDS: tuple[str, ...] = ("astar", "annealing")

#: Retired backend names still accepted wherever a strategy name is,
#: and the backend each now selects.  The MCTS walker was deleted in
#: favour of annealing (DESIGN.md §14, "Decision record: one anytime
#: walker"); "mcts" keeps old configurations and environments working.
STRATEGY_ALIASES: dict[str, str] = {"mcts": "annealing"}


@dataclass(frozen=True)
class SearchSettings:
    """Tuning knobs of the adaptation search."""

    #: Self-aware variant (search-cost accounting + pruning) vs naive A*.
    self_aware: bool = True
    #: Fraction of children kept once pruning activates (paper: top 5%).
    prune_fraction: float = 0.05
    #: Delay threshold as a fraction of the control window (paper: 5%).
    delay_threshold_fraction: float = 0.05
    #: The self-aware search commits to its best incumbent once the
    #: (virtual) search time exceeds this multiple of the delay
    #: threshold — pruning alone bounds width, this bounds depth.
    hard_stop_factor: float = 3.0
    #: Virtual decision-time accounting, in seconds: a fixed overhead
    #: per vertex expansion, a small charge per child configuration
    #: generated (apply + distance), and a larger charge per child
    #: fully evaluated (cost prediction + utility estimation).  Search
    #: durations are thus deterministic, platform-independent, and grow
    #: with the branching factor — which is how the naive search's
    #: duration blows up with system size (Table I) while the pruned
    #: self-aware search, which skips the evaluation of pruned
    #: children, stays nearly linear.
    per_vertex_seconds: float = 0.004
    per_child_apply_seconds: float = 0.0002
    per_child_eval_seconds: float = 0.0008
    #: Extra watts the controller host draws while searching (Fig. 10a:
    #: up to ~12% over a 60 W idle draw).
    search_watts_delta: float = 7.2
    #: Hard safety cap on expansions (returns best candidate so far).
    max_expansions: int = 4000
    #: Action families this controller may use.
    allowed_kinds: frozenset[str] = ALL_ACTION_KINDS
    #: CPU cap of newly added replicas.
    replica_cap: float = 0.2
    #: Safety cap on plan length (vertices deeper than this are not
    #: expanded further; they can still terminate as candidates).  Must
    #: exceed the longest useful reconfiguration (a full consolidation
    #: of ~20 VMs runs to roughly 30 actions including cap steps).
    max_plan_actions: int = 48
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
    #: distance/cost-to-go/feasibility, delta LQN solves chained off
    #: the parent's solver state, and the array-native expansion rounds
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
    #: environment variable and falls back to ``"astar"`` — the
    #: pre-refactor exact A* loop, bit-identical to its un-extracted
    #: form.  ``"annealing"`` is the seeded anytime walker:
    #: deterministic under a fixed ``strategy_seed``, it keeps a
    #: feasible incumbent at all times and returns it on any abort
    #: (deadline watchdog included).
    strategy: Optional[str] = None
    #: Seed of the walker's private RNG.  Two searches with the same
    #: seed, inputs and knobs make identical decisions; the exact A*
    #: ignores it.
    strategy_seed: int = 0
    #: Proposal width of the walker: each step considers only the
    #: ``walker_branch_limit`` enumerated actions closest to the ideal
    #: configuration (weighted-Euclidean distance — the same ranking
    #: the self-aware prune uses).
    walker_branch_limit: int = 16
    #: Annealing step budget per search.  A step is one proposed
    #: child.  The search "completes" (is not deadline-aborted) when
    #: this budget is exhausted before the watchdog fires.
    annealing_iterations: int = 2400
    #: Initial temperature, as a fraction of the search's utility scale
    #: (the ideal-vs-null utility gap over the window).
    annealing_initial_temperature: float = 0.35
    #: Geometric cooling factor applied once per step (the default
    #: reaches ~10% of the initial temperature over the default step
    #: budget).
    annealing_cooling: float = 0.999
    #: Consecutive rejected/inapplicable moves before the walker
    #: teleports back to its best incumbent (anytime restarts).
    annealing_restart_interval: int = 60

    def __post_init__(self) -> None:
        if not 0.0 < self.prune_fraction <= 1.0:
            raise ValueError("prune_fraction must be in (0, 1]")
        if self.per_vertex_seconds <= 0:
            raise ValueError("per_vertex_seconds must be positive")
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
        if self.walker_branch_limit < 1:
            raise ValueError("walker_branch_limit must be >= 1")
        if self.annealing_iterations < 1:
            raise ValueError("annealing_iterations must be >= 1")
        if self.annealing_initial_temperature <= 0:
            raise ValueError("annealing_initial_temperature must be positive")
        if not 0.0 < self.annealing_cooling <= 1.0:
            raise ValueError("annealing_cooling must be in (0, 1]")
        if self.annealing_restart_interval < 1:
            raise ValueError("annealing_restart_interval must be >= 1")


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
    """One search vertex (slotted: one search allocates tens of
    thousands of these, and the per-instance dict is pure overhead)."""

    #: None only for array-core lazy children (see ``pending_config``).
    configuration: Optional[Configuration]
    actions: tuple[AdaptationAction, ...]
    accrued: float  # sum of d(a) * transient utility rate
    elapsed: float  # sum of action durations D
    utility: float = 0.0  # true value: bound (intermediate) or Eq. 3 (terminal)
    priority: float = 0.0  # heap ordering: utility minus guidance potential
    distance: float = 0.0  # weighted-Euclidean distance to the ideal config
    terminal: bool = False
    is_candidate: bool = False
    #: Incremental-mode delta state (None when incremental is off).
    state: "Optional[_VertexState]" = None
    #: Lazy state for array-round children: ``(parent_state, delta)``
    #: materialized into ``state`` only if the vertex is ever expanded
    #: (most children never are — ~1% of generated vertices get popped).
    pending: Optional[tuple] = None
    #: Lineage for delta utility estimation: the configuration this
    #: vertex was derived from and the VMs its action changed.
    parent_configuration: Optional[Configuration] = None
    changed_vms: frozenset[str] = frozenset()
    #: Array-core dedup key (the codec's byte image of the
    #: configuration; None on the full path).  Byte equality is
    #: configuration equality, so the open-set bookkeeping can run on
    #: keys while ``configuration`` stays lazy.
    key: Optional[bytes] = None
    #: Array-core lazy configuration: ``(parent_configuration, delta)``
    #: materialized only if the vertex is ever popped for expansion
    #: (``configuration`` is None until then; candidates — whose
    #: terminal twins need the real object — are built eagerly).
    pending_config: Optional[tuple] = None


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
    reductions run in the same canonical order as the full-path code,
    so the results are bit-identical (float addition of the same
    operands in the same order is deterministic).

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

    def distance(self, state: _VertexState) -> float:
        """Bit-identical to ``AdaptationSearch._distance``: the terms
        are re-summed in catalog order from the same 0 start."""
        cap_term = sum(state.cap_terms)
        matches = sum(state.host_matches)
        total = self.total
        placement_term = 1.0 - (matches / total if total else 1.0)
        return math.sqrt(cap_term) + placement_term

    def child_distance(
        self,
        state: _VertexState,
        delta: tuple,
    ) -> float:
        """Distance of a child, bit-identical to
        ``distance(child_state(...))`` but computed straight from an
        action's placement delta — the anytime walker ranks every
        proposal by distance and keeps only a few, so neither the child
        configuration nor its state is built for the discards."""
        if not delta:
            return self.distance(state)
        cap_terms = state.cap_terms.copy()
        host_matches = state.host_matches.copy()
        for vm_id, new in delta:
            i = self.index[vm_id]
            cap = new.cpu_cap if new is not None else 0.0
            cap_terms[i] = self.weights[i] * (cap - self.ideal_caps[i]) ** 2
            host = new.host_id if new is not None else None
            host_matches[i] = 1 if host == self.ideal_hosts[i] else 0
        cap_term = sum(cap_terms)
        matches = sum(host_matches)
        total = self.total
        placement_term = 1.0 - (matches / total if total else 1.0)
        return math.sqrt(cap_term) + placement_term

    def togo_seconds(
        self, state: _VertexState, configuration: Configuration
    ) -> float:
        """Bit-identical to ``AdaptationSearch._togo_seconds``."""
        seconds = sum(state.togo_terms, 0.0)
        for _ in self.ideal_powered - configuration.powered_hosts:
            seconds += self.durations.get(("power_on", "-"), 90.0)
        for _ in configuration.powered_hosts - self.ideal_powered:
            seconds += self.durations.get(("power_off", "-"), 30.0)
        return seconds

    def is_candidate(self, state: _VertexState) -> bool:
        """Same verdict as ``Configuration.is_candidate``."""
        return state.bad_hosts == 0 and not state.bad_vms


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

    The A*'s array rounds call :meth:`predict_round` once per round;
    the walker calls :meth:`predict` once per child.
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
        """Predictions for one array round's selected (pre-validated)
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
    """The bookkeeping every search backend shares: the wall-clock
    start, the provenance collector and phase profile (present only
    while telemetry is on), and :meth:`finish`, the one funnel that
    builds the :class:`SearchOutcome` and emits the search's telemetry
    record.

    Built once the ideal and the current configuration's rate are
    known, and installs the phase profile then, so the ideal's own work
    stays outside the search's phases.
    """

    __slots__ = (
        "search",
        "settings",
        "current",
        "workloads",
        "wkey",
        "ideal",
        "window",
        "null_value",
        "wall_start",
        "collector",
        "profile",
    )

    def __init__(
        self,
        search: "AdaptationSearch",
        settings: SearchSettings,
        current: Configuration,
        workloads: Mapping[str, float],
        wkey: tuple,
        ideal: PerfPwrResult,
        window: float,
        current_rate: float,
        wall_start: float,
    ) -> None:
        self.search = search
        self.settings = settings
        self.current = current
        self.workloads = workloads
        self.wkey = wkey
        self.ideal = ideal
        self.window = window
        #: Eq. 3 value of keeping the current configuration.
        self.null_value = window * current_rate
        self.wall_start = wall_start
        self.collector = (
            ProvenanceCollector()
            if _telemetry.enabled and _telemetry.provenance
            else None
        )
        self.profile = _phases.PhaseProfile() if _telemetry.enabled else None
        if self.profile is not None:
            _phases.set_profile(self.profile)

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
        #: host universe of the array core's codec, which must encode
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
        # Array expansion core (DESIGN.md §13): the numeric codec and
        # constants, plus per-sublist ActionBlocks cached under the
        # same keys as ``_round_action_cache``.
        self._array_statics: Optional[ArrayStatics] = None
        self._round_block_cache: dict[tuple, object] = {}
        # Concatenated plans keyed by their block identity tuple: the
        # same (cached) block list recurs across expansion rounds, and
        # a plan is a pure function of its blocks.  Plans hold strong
        # block references, so ids stay unambiguous while cached.
        self._round_plan_cache: dict[tuple, RoundPlan] = {}
        # Cost-prediction memos that outlive one search: per-action facts
        # by id and PredictedCost by value key (see ``_CostMemo``,
        # which every backend's per-search memo reads them through).
        self._action_facts: dict = {}
        self._predict_values: dict = {}
        #: Optional callback invoked (with a reason string) when an
        #: anytime walker fails and the search falls back to the exact
        #: A* — the controller wires this into its resilience ladder.
        self.on_executor_failure: Optional[Callable[[str], None]] = None
        #: Chaos-mode fault injector (attached by the testbed); handed
        #: to the walker contexts (solver exceptions, strategy stalls).
        self.fault_injector = None

    # -- array core ------------------------------------------------------------

    def _ensure_array_statics(self) -> ArrayStatics:
        """Codec + numeric constants, built once per search instance."""
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

        Dispatches to the configured :class:`SearchStrategy` backend
        (``settings.strategy`` → ``MISTRAL_SEARCH_STRATEGY`` → the
        default ``"astar"``; see DESIGN.md §14).  ``"astar"`` runs the
        exact A* loop below with bit-identical outcomes to the
        pre-strategy code; ``"annealing"`` runs the seeded anytime
        walker in :mod:`repro.core.strategies`.

        ``expected_utility``/``expected_rate`` seed the self-aware
        budget ``UH`` (the paper uses the lowest of recent utilities);
        they default to the ideal utility over the window.
        ``settings_override`` swaps the search settings for this one run
        (the resilience ladder's degraded rung forces a pruned
        self-aware search with a reduced expansion budget).
        """
        # Imported lazily: strategies.py imports this module's classes,
        # so a module-level import here would be circular.
        from repro.core.strategies import resolve_strategy

        settings = (
            self.settings if settings_override is None else settings_override
        )
        strategy = resolve_strategy(settings.strategy)
        strategy_name = strategy.name
        try:
            outcome = strategy.run(
                self,
                current,
                workloads,
                control_window,
                expected_utility=expected_utility,
                expected_rate=expected_rate,
                settings_override=settings_override,
            )
        except Exception as error:
            if strategy_name == "astar":
                raise  # the exact loop has no fallback below it
            # Walker failure degradation: an anytime backend blowing up
            # mid-run (an injected solver fault, a real bug) must never
            # cost the controller a decision — fall back to the exact
            # A* incumbent path, which shares none of the walker's
            # failed machinery, and tell the resilience ladder.
            _phases.set_profile(None)  # the dead walker's, if any
            if _telemetry.enabled:
                registry = _telemetry.registry
                registry.counter("search.strategy_failures").inc()
                registry.counter(
                    f"search.strategy.{strategy_name}.failures"
                ).inc()
                _telemetry.tracer.event(
                    "search.strategy_failure",
                    strategy=strategy_name,
                    error=type(error).__name__,
                    detail=str(error),
                )
            if self.on_executor_failure is not None:
                try:
                    self.on_executor_failure("strategy_failure")
                except Exception:
                    pass  # resilience hooks must never kill the search
            outcome = self._astar_search(
                current,
                workloads,
                control_window,
                expected_utility,
                expected_rate,
                settings_override,
            )
            strategy_name = "astar"  # what actually decided
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

    def _astar_search(
        self,
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        expected_utility: Optional[float] = None,
        expected_rate: Optional[float] = None,
        settings_override: Optional[SearchSettings] = None,
    ) -> SearchOutcome:
        """The paper's exact Naive / Self-Aware A* (Algorithm 1).

        Every return path of the pre-strategy ``search`` is preserved
        verbatim — the ``"astar"`` strategy is this method, so its
        outcomes are bit-identical to the un-extracted loop.
        """
        wall_start = time.perf_counter()
        settings = (
            self.settings if settings_override is None else settings_override
        )
        incremental = settings.incremental
        wkey = self.estimator.workload_key(workloads)
        ideal = self.perf_pwr.optimize(workloads)
        if self.scope_hosts is not None:
            ideal = self._project_ideal(current, ideal, workloads)
        ideal_rate = ideal.ideal_rate
        window = max(control_window, 0.0)

        current_estimate = self.estimator.estimate(current, workloads, key=wkey)
        current_rate = current_estimate.total_rate

        # Instrumentation tallies (cheap unconditional ints; flushed to
        # the telemetry registry by ``run.finish`` only when enabled).
        generated = 0
        pruned_away = 0
        candidate_pushes = 0
        # Watchdog state: a deadline of None keeps every check off the
        # hot path (single ``is not None`` test per expansion).
        deadline = settings.deadline_seconds
        deadline_hit = False
        # Provenance + phase profiling ride along only while telemetry
        # is on: with it off neither object exists and every hook below
        # stays a single ``is not None`` test (or is never reached).
        run = _SearchRun(
            self,
            settings,
            current,
            workloads,
            wkey,
            ideal,
            window,
            current_rate,
            wall_start,
        )
        collector = run.collector

        if ideal.configuration == current:
            return run.finish(
                (),
                current,
                run.null_value,
                expansions=0,
                decision_seconds=settings.per_vertex_seconds,
                optimal=True,
                incremental=incremental,
                early_return=True,
            )

        ideal_weights, ideal_caps = self._ideal_distance_basis(ideal)

        def vertex_distance(configuration: Configuration) -> float:
            return self._distance(
                configuration, ideal_caps, ideal_weights, ideal
            )

        # Guidance potential: estimated seconds of adaptation still
        # needed to reach the ideal configuration, priced at the gap
        # between the ideal rate and the rate accrued while adapting.
        # This tightens the cost-to-go of intermediates (the raw ideal
        # bound assumes instant, free adaptation) so the search
        # converges instead of flooding the near-zero-cost frontier.
        action_durations = self._togo_durations(workloads)
        rate_gap = settings.togo_discount * max(
            ideal_rate - current_rate, 0.1 * abs(ideal_rate), 1e-9
        )

        # The incremental path expands in array rounds (DESIGN.md §13):
        # vertices are deduplicated by their codec byte keys, and the
        # codec spans the whole cluster, so every configuration the
        # search can reach encodes.  The full path (the oracle) keys
        # vertices by configuration.
        basis: Optional[_SearchBasis] = None
        abasis: Optional[ArrayBasis] = None
        codec = None
        if incremental:
            self.estimator.prime(current, workloads, key=wkey)
            basis = _SearchBasis(
                self.catalog,
                self.limits,
                ideal.configuration,
                ideal_weights,
                ideal_caps,
                action_durations,
            )
            statics = self._ensure_array_statics()
            codec = statics.codec
            abasis = ArrayBasis(statics, basis)

        def togo_penalty(vertex: _Vertex) -> float:
            if basis is not None:
                seconds = basis.togo_seconds(
                    vertex.state, vertex.configuration
                )
            else:
                seconds = self._togo_seconds(
                    vertex.configuration, ideal.configuration, action_durations
                )
            return settings.guidance_weight * seconds * rate_gap

        def steady_of(vertex: _Vertex) -> "SteadyEstimate":
            """Steady estimate via the delta path when lineage allows."""
            if incremental and vertex.parent_configuration is not None:
                return self.estimator.estimate_child(
                    vertex.parent_configuration,
                    vertex.configuration,
                    vertex.changed_vms,
                    workloads,
                    key=wkey,
                )
            return self.estimator.estimate(
                vertex.configuration, workloads, key=wkey
            )

        # -- self-aware bookkeeping (Algorithm 1's T, UT, UpwrT, UH) --
        budget = (
            expected_utility
            if expected_utility is not None
            else window * ideal_rate
        )
        budget_rate = expected_rate if expected_rate is not None else ideal_rate
        search_power_rate = -self.estimator.utility.power_utility_rate(
            settings.search_watts_delta
        )
        elapsed_search = 0.0
        accrued_current = 0.0
        accrued_search_power = 0.0
        pruning = False
        delay_threshold = settings.delay_threshold_fraction * window

        def bound(vertex: _Vertex) -> float:
            remaining = max(0.0, window - vertex.elapsed)
            return remaining * ideal_rate + vertex.accrued

        def candidate_value(vertex: _Vertex) -> float:
            remaining = max(0.0, window - vertex.elapsed)
            steady = steady_of(vertex)
            return remaining * steady.total_rate + vertex.accrued

        counter = itertools.count()
        heap: list[tuple[float, int, _Vertex]] = []
        # Keyed by the codec's byte image on the incremental path (byte
        # equality == configuration equality, and bytes hash much
        # faster), by the configuration itself on the full path;
        # within one search every vertex uses the same scheme.
        best_priority: dict[tuple, float] = {}
        best_terminal: Optional[_Vertex] = None

        def push(vertex: _Vertex) -> None:
            nonlocal best_terminal
            key = (
                vertex.key if vertex.key is not None else vertex.configuration,
                vertex.terminal,
            )
            known = best_priority.get(key)
            if known is not None and known >= vertex.priority - 1e-12:
                return
            best_priority[key] = vertex.priority
            # Ties break toward deeper vertices (then recency) so plans
            # complete instead of re-exploring orderings of the same
            # commuting actions.
            heapq.heappush(
                heap,
                (-vertex.priority, -len(vertex.actions), -next(counter), vertex),
            )
            if vertex.terminal and (
                best_terminal is None or vertex.utility > best_terminal.utility
            ):
                best_terminal = vertex

        def finalize(vertex: _Vertex) -> None:
            """Set priority: intermediates pay the guidance potential.

            The potential is a *constant* per configuration (it must not
            depend on the path's elapsed time, or cycles of cheap
            actions could raise their own priority by shrinking the
            remaining window).
            """
            if vertex.terminal:
                vertex.priority = vertex.utility
            else:
                vertex.priority = vertex.utility - togo_penalty(vertex)

        def build_child(
            parent: _Vertex,
            action: AdaptationAction,
            parent_steady: SteadyEstimate,
            new_config: Optional[Configuration] = None,
        ) -> Optional[_Vertex]:
            """Child vertex for one action, or None if inapplicable.

            Builds the seed-plan vertices on both paths and every child
            of the full path.  ``parent_steady`` is hoisted to the
            caller (one estimate per expansion, not one per child); the
            full path's pruned rounds pass the already-applied
            ``new_config`` through so nothing is computed twice.  On the
            incremental path the action's placement delta both
            validates the action and yields the child configuration
            directly (one ``replace``/``remove``), skipping ``apply``'s
            duplicate validation pass.
            """
            if incremental:
                try:
                    delta = action.placement_delta(
                        parent.configuration, self.catalog, self.limits
                    )
                except ActionError:
                    return None
                changed = frozenset(vm_id for vm_id, _ in delta)
                if len(delta) == 1:
                    (vm_id, placement), = delta
                    new_config = (
                        parent.configuration.remove(vm_id)
                        if placement is None
                        else parent.configuration.replace(vm_id, placement)
                    )
                else:
                    # No-VM actions (null / host power) — and any future
                    # multi-edit action — go through apply.
                    try:
                        new_config = action.apply(
                            parent.configuration, self.catalog, self.limits
                        )
                    except ActionError:
                        return None
                child_state = basis.child_state(
                    parent.configuration, parent.state, delta
                )
                distance = basis.distance(child_state)
                is_candidate = basis.is_candidate(child_state)
            else:
                if new_config is None:
                    try:
                        new_config = action.apply(
                            parent.configuration, self.catalog, self.limits
                        )
                    except ActionError:
                        return None
                changed = frozenset()
                child_state = None
                distance = vertex_distance(new_config)
                is_candidate = new_config.is_candidate(
                    self.catalog, self.limits
                )
            predicted = self.cost_manager.predict(
                action, parent.configuration, workloads
            )
            perf_rate, power_rate = self.estimator.transient_rates(
                parent_steady,
                workloads,
                predicted.rt_delta,
                predicted.power_delta_watts,
            )
            # Accrual is truncated at the window's end and capped at the
            # ideal rate: otherwise plans longer than the window (or
            # transient rates above the heuristic) would make cyclic
            # action sequences look profitable.
            effective = min(
                predicted.duration, max(0.0, window - parent.elapsed)
            )
            transient_rate = min(perf_rate + power_rate, ideal_rate)
            child = _Vertex(
                configuration=new_config,
                actions=parent.actions + (action,),
                accrued=parent.accrued + effective * transient_rate,
                elapsed=parent.elapsed + predicted.duration,
                distance=distance,
                is_candidate=is_candidate,
                state=child_state,
                parent_configuration=parent.configuration,
                changed_vms=changed,
                key=(
                    codec.encode_key(new_config)
                    if codec is not None
                    else None
                ),
            )
            child.utility = bound(child)
            finalize(child)
            return child

        def push_with_terminal(vertex: _Vertex) -> None:
            nonlocal candidate_pushes
            push(vertex)
            if vertex.is_candidate:
                candidate_pushes += 1
                terminal = _Vertex(
                    configuration=vertex.configuration,
                    actions=vertex.actions,
                    accrued=vertex.accrued,
                    elapsed=vertex.elapsed,
                    terminal=True,
                    is_candidate=True,
                    state=vertex.state,
                    parent_configuration=vertex.parent_configuration,
                    changed_vms=vertex.changed_vms,
                    key=vertex.key,
                )
                terminal.utility = candidate_value(terminal)
                if collector is not None:
                    collector.note_candidate(terminal.utility, terminal.actions)
                finalize(terminal)
                push(terminal)

        # -- array-round scoring state (DESIGN.md §13) ---------------------
        # Point utility-rate lookups memoized by input value; scoped to
        # this search because they fix (workloads, utility model).
        util_memo: dict = {}
        # Sparse rt-delta views of PredictedCost objects for the array
        # rounds, keyed by id(); each entry holds the object itself so
        # ids cannot be recycled while the memo lives.  Scoped with
        # ``util_memo``: entries bake in this search's workload vector.
        workload_items = list(workloads.items())
        workload_pos = {
            app: (i, rate) for i, (app, rate) in enumerate(workload_items)
        }
        transient_sparse: dict = {}

        costs = _CostMemo(self, workloads)

        def round_expired() -> bool:
            """Watchdog check before an array round's cost predictions."""
            nonlocal deadline_hit
            if deadline is not None and (
                time.perf_counter() - wall_start >= deadline
            ):
                deadline_hit = True
            return deadline_hit

        def vertex_state(vertex: _Vertex) -> _VertexState:
            """Materialize an array-round vertex's lazy state on first
            expansion (identical to the eager serial construction)."""
            state = vertex.state
            if state is None and vertex.pending is not None:
                parent_state, delta = vertex.pending
                state = basis.child_state(
                    vertex.parent_configuration, parent_state, delta
                )
                vertex.state = state
                vertex.pending = None
            return state

        def child_candidate(
            state: _VertexState,
            parent_configuration: Configuration,
            delta: tuple,
        ) -> bool:
            """The child's candidate verdict in O(1), without building
            its state: replays ``child_state``'s host-entry arithmetic
            for the action's one VM edit (every action kind moves at
            most one VM) — at most one source and one destination
            entry, with ``_host_bad`` unrolled inline (same
            comparisons).

            Quick rejects first: an under-cap VM the action does not
            touch stays under cap, and a bad host the action's (at
            most two) touched hosts cannot account for stays bad."""
            ((vm_id, new),) = delta
            bad_vms = state.bad_vms
            if bad_vms and (len(bad_vms) > 1 or vm_id not in bad_vms):
                return False
            bad_hosts = state.bad_hosts
            if bad_hosts > 2:
                return False
            limits = self.limits
            hosts = state.hosts
            memory = basis.memory
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
                    src_entry if dst == src and src_entry is not _ABSENT
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

        def build_children_array(
            vertex: _Vertex,
            state: _VertexState,
            parent_steady: SteadyEstimate,
            plan: RoundPlan,
            values: tuple,
            sel: np.ndarray,
            actions_sel: list,
            predictions: list,
            dist_sel: Optional[np.ndarray],
            parent_rows,
        ) -> list:
            """Children for one array round — the same order and float
            values as the full path's per-child ``build_child`` loop,
            with the scatter loops replaced by the plan's precomputed
            columns.

            Non-candidate children stay lazy all the way down: each is
            returned as a flat payload tuple
            (codec byte key, priority/utility scalars, action, delta,
            shared lineage) — no ``_Vertex``, no ``Configuration`` —
            and ``materialize_lazy`` builds the real vertex only if the
            heap ever pops it (~1% of pushes are).  Dedup runs on the
            byte keys.  Candidates (and null/host-power actions)
            materialize eagerly — their terminal twins estimate steady
            utility from the real object.
            """
            if sel.size == 0 or not predictions:
                return []
            n_on = len(basis.ideal_powered - vertex.configuration.powered_hosts)
            n_off = len(
                vertex.configuration.powered_hosts - basis.ideal_powered
            )
            dist_list, togo_list = abasis.sel_reductions(
                state, plan, sel, values, dist_sel, n_on, n_off
            )
            # Kernel-versus-scalar dispatch: below ~2 dozen children the
            # integer-replay kernel's fixed numpy overhead loses to the
            # per-child ``child_candidate`` check (same verdicts).
            cand_vec = (
                abasis.candidacy(state, plan, sel, parent_rows)
                if sel.size >= 24
                else None
            )
            cand_list = cand_vec.tolist() if cand_vec is not None else None
            keys = abasis.child_keys(plan, sel, vertex.key)
            remaining_window = max(0.0, window - vertex.elapsed)
            transient_memo: dict = {}
            children: list[_Vertex] = []
            parent_config = vertex.configuration
            parent_actions = vertex.actions
            parent_accrued = vertex.accrued
            parent_elapsed = vertex.elapsed
            config_replace = parent_config.replace
            config_remove = parent_config.remove
            memo_get = transient_memo.get
            guidance_weight = settings.guidance_weight
            deltas = plan.deltas
            # Transient rates, unrolled (estimator.transient_rates with
            # the same ``util_memo``): the parent's base perf rate is a
            # fixed left-to-right sum over the workload order, so the
            # per-child sum restarts from the prefix before the first
            # app the prediction perturbs and replays the identical
            # float additions from there — bit-identical by
            # construction, without the full per-app loop for the
            # common sparse ``rt_delta``.
            app_rates = parent_steady.app_perf_rates
            base_rts = parent_steady.response_times
            base_power_rate = parent_steady.power_rate
            parent_watts = parent_steady.watts
            n_apps = len(workload_items)
            base_rates = [0.0] * n_apps
            prefix = [0.0] * (n_apps + 1)
            acc = 0.0
            for i, (app, _rate) in enumerate(workload_items):
                prefix[i] = acc
                rate = app_rates[app]
                base_rates[i] = rate
                acc = acc + rate
            prefix[n_apps] = acc
            util_get = util_memo.get
            sparse_get = transient_sparse.get
            pos_get = workload_pos.get
            perf_rate_of = self.estimator.utility.perf_utility_rate
            power_rate_of = self.estimator.utility.power_utility_rate
            # One shared lineage tuple per round keeps each lazy payload
            # flat (see ``materialize_lazy`` for the slot layout).
            lineage = (parent_config, parent_actions, state)
            children_append = children.append
            # Null/host-power child keys splice the parent's key bytes
            # (a power toggle edits exactly one powered-flag byte; a
            # null action edits nothing) instead of re-encoding the
            # applied configuration — identical bytes by the codec's
            # layout.
            parent_key = vertex.key
            powered_base = 10 * len(codec.vm_ids)
            host_slot = codec.host_index
            # Pass 1 — transient (perf + power) utility rates and
            # durations per child, through the per-round memo
            # (predictions are interned, so distinct ids are few).
            n_sel = len(predictions)
            dur_l = [0.0] * n_sel
            trate_l = [0.0] * n_sel
            for j, predicted in enumerate(predictions):
                tkey = id(predicted)
                rates = memo_get(tkey)
                if rates is None:
                    sparse = sparse_get(tkey)
                    if sparse is None:
                        # Walk the (small) rt_delta dict, not the whole
                        # workload vector; sorting by position restores
                        # the workload-order iteration of
                        # ``transient_rates`` (positions are unique).
                        touched = []
                        for app, rt_d in predicted.rt_delta.items():
                            if rt_d != 0.0:
                                pos = pos_get(app)
                                if pos is not None:
                                    touched.append(
                                        (pos[0], app, pos[1], rt_d)
                                    )
                        touched.sort()
                        transient_sparse[tkey] = sparse = (
                            predicted, tuple(touched),
                        )
                    entries = sparse[1]
                    if not entries:
                        perf_rate = prefix[n_apps]
                    else:
                        k = entries[0][0]
                        acc = prefix[k]
                        for pos, app, rate, rt_d in entries:
                            while k < pos:
                                acc = acc + base_rates[k]
                                k += 1
                            rt_after = base_rts[app] + rt_d
                            mkey = (app, rt_after)
                            value = util_get(mkey)
                            if value is None:
                                value = perf_rate_of(app, rate, rt_after)
                                util_memo[mkey] = value
                            acc = acc + value
                            k += 1
                        while k < n_apps:
                            acc = acc + base_rates[k]
                            k += 1
                        perf_rate = acc
                    power_delta = predicted.power_delta_watts
                    if power_delta == 0.0:
                        power_rate = base_power_rate
                    else:
                        watts_after = parent_watts + power_delta
                        pkey = ("", watts_after)
                        power_rate = util_get(pkey)
                        if power_rate is None:
                            power_rate = power_rate_of(watts_after)
                            util_memo[pkey] = power_rate
                    transient_memo[tkey] = rates = (perf_rate, power_rate)
                dur_l[j] = predicted.duration
                trate_l[j] = rates[0] + rates[1]
            # Pass 2 — the per-child scalar chains.  Wide rounds run
            # them as elementwise array ops: each lane replays the
            # exact scalar expressions (min -> conditional assignment,
            # where -> conditional zero), and numpy's elementwise
            # +,-,*,minimum are the same IEEE double operations —
            # bit-identical per child.  Narrow (pruned) rounds keep the
            # scalar loop, which beats the kernels' fixed setup there.
            if n_sel >= 24:
                dur_a = np.asarray(dur_l)
                eff_a = np.minimum(dur_a, remaining_window)
                trate_a = np.minimum(np.asarray(trate_l), ideal_rate)
                elapsed_a = parent_elapsed + dur_a
                accrued_a = parent_accrued + eff_a * trate_a
                remaining_a = window - elapsed_a
                # ``bound``/priority inlined (identical arithmetic).
                utility_a = (
                    np.where(remaining_a > 0.0, remaining_a, 0.0)
                    * ideal_rate
                    + accrued_a
                )
                prio_a = (
                    utility_a
                    - guidance_weight * np.asarray(togo_list) * rate_gap
                )
                elapsed_l = elapsed_a.tolist()
                accrued_l = accrued_a.tolist()
                utility_l = utility_a.tolist()
                prio_l = prio_a.tolist()
            else:
                elapsed_l = [0.0] * n_sel
                accrued_l = [0.0] * n_sel
                utility_l = [0.0] * n_sel
                prio_l = [0.0] * n_sel
                for j in range(n_sel):
                    duration = dur_l[j]
                    effective = (
                        duration if duration < remaining_window
                        else remaining_window
                    )
                    transient_rate = trate_l[j]
                    if ideal_rate < transient_rate:
                        transient_rate = ideal_rate
                    elapsed = parent_elapsed + duration
                    accrued = parent_accrued + effective * transient_rate
                    remaining = window - elapsed
                    # ``bound``/priority inlined (identical arithmetic).
                    utility = (
                        remaining if remaining > 0.0 else 0.0
                    ) * ideal_rate + accrued
                    elapsed_l[j] = elapsed
                    accrued_l[j] = accrued
                    utility_l[j] = utility
                    prio_l[j] = (
                        utility
                        - guidance_weight * togo_list[j] * rate_gap
                    )
            # Pass 3 — emit: lazy payload tuples for non-candidate
            # single-edit children, eager vertices for the rest.
            for j, (column, action) in enumerate(
                zip(sel.tolist(), actions_sel)
            ):
                delta = deltas[column]
                accrued = accrued_l[j]
                elapsed = elapsed_l[j]
                utility = utility_l[j]
                if delta:
                    key_bytes = keys[j]
                    is_cand = (
                        cand_list[j]
                        if cand_list is not None
                        else child_candidate(state, parent_config, delta)
                    )
                    priority = prio_l[j]
                    if not is_cand:
                        # ~99% of children: no ``_Vertex`` (or even
                        # ``Configuration``) until the heap pops them.
                        children_append((
                            key_bytes,
                            priority,
                            utility,
                            accrued,
                            elapsed,
                            dist_list[j],
                            action,
                            delta,
                            lineage,
                        ))
                        continue
                    (vm_id, placement), = delta
                    child = _Vertex(
                        configuration=(
                            config_remove(vm_id)
                            if placement is None
                            else config_replace(vm_id, placement)
                        ),
                        actions=parent_actions + (action,),
                        accrued=accrued,
                        elapsed=elapsed,
                        distance=dist_list[j],
                        is_candidate=True,
                        state=None,
                        pending=(state, delta),
                        parent_configuration=parent_config,
                        changed_vms=frozenset((vm_id,)),
                        key=key_bytes,
                        pending_config=None,
                    )
                else:
                    # Null/host-power actions share the parent's state,
                    # but their powered set differs — full togo path.
                    try:
                        new_config = action.apply(
                            parent_config, self.catalog, self.limits
                        )
                    except ActionError:
                        continue
                    togo_child = basis.togo_seconds(state, new_config)
                    priority = (
                        utility - guidance_weight * togo_child * rate_gap
                    )
                    akind = type(action)
                    if akind is PowerOnHost:
                        off = powered_base + host_slot[action.host_id]
                        child_key = (
                            parent_key[:off] + b"\x01"
                            + parent_key[off + 1 :]
                        )
                    elif akind is PowerOffHost:
                        off = powered_base + host_slot[action.host_id]
                        child_key = (
                            parent_key[:off] + b"\x00"
                            + parent_key[off + 1 :]
                        )
                    elif akind is NullAction:
                        child_key = parent_key
                    else:
                        child_key = codec.encode_key(new_config)
                    child = _Vertex(
                        configuration=new_config,
                        actions=parent_actions + (action,),
                        accrued=accrued,
                        elapsed=elapsed,
                        distance=dist_list[j],
                        is_candidate=basis.is_candidate(state),
                        state=state,
                        pending=None,
                        parent_configuration=parent_config,
                        changed_vms=frozenset(),
                        key=child_key,
                        pending_config=None,
                    )
                child.utility = utility
                child.priority = priority
                children_append(child)
            return children

        def materialize_lazy(payload: tuple) -> _Vertex:
            """A popped lazy child becomes a real vertex.

            The payload carries exactly what ``build_children_array``
            computed for the child; the vertex built here is
            field-for-field the one the eager path would have built
            (``configuration`` stays pending — the pop loop below
            materializes it next, as for any lazy-config vertex).
            """
            (
                key_bytes,
                priority,
                utility,
                accrued,
                elapsed,
                distance,
                action,
                delta,
                lineage,
            ) = payload
            parent_config, parent_actions, parent_state = lineage
            child = _Vertex(
                configuration=None,
                actions=parent_actions + (action,),
                accrued=accrued,
                elapsed=elapsed,
                distance=distance,
                is_candidate=False,
                state=None,
                pending=(parent_state, delta),
                parent_configuration=parent_config,
                changed_vms=frozenset(vm_id for vm_id, _ in delta),
                key=key_bytes,
                pending_config=(parent_config, delta),
            )
            child.utility = utility
            child.priority = priority
            return child

        root = _Vertex(
            configuration=current,
            actions=(),
            accrued=0.0,
            elapsed=0.0,
            state=basis.full_state(current) if incremental else None,
            is_candidate=current.is_candidate(self.catalog, self.limits),
            key=codec.encode_key(current) if codec is not None else None,
        )
        root.distance = (
            basis.distance(root.state)
            if incremental
            else vertex_distance(current)
        )
        root.utility = bound(root)
        finalize(root)
        push_with_terminal(root)

        # Seed the open set with direct transition plans to the ideal
        # configuration and to each per-host-count Perf-Pwr alternative
        # (plus all their prefixes).  This installs good incumbent
        # terminals — full and partial adaptations — that the graph
        # search must beat, which bounds its effective depth.
        if settings.seed_with_plan:
            targets = [ideal.configuration] + [
                alternative.configuration
                for alternative in ideal.alternatives
                if alternative.configuration != ideal.configuration
            ]
            for target in targets:
                seed_vertex = root
                for action in plan_transition(
                    current, target, self.catalog, self.limits
                ):
                    if action.kind not in settings.allowed_kinds:
                        break  # keep the valid prefix only
                    seed_vertex = build_child(
                        seed_vertex, action, steady_of(seed_vertex)
                    )
                    if seed_vertex is None:
                        break
                    push_with_terminal(seed_vertex)

        expansions = 0
        result_vertex: Optional[_Vertex] = None
        # Hoisted once: per-expansion wall timing only when telemetry
        # is on (two clock reads per expansion otherwise saved).
        expand_hist = (
            _telemetry.registry.histogram("search.expand_seconds")
            if _telemetry.enabled
            else None
        )
        while heap:
            neg_priority, _, _, vertex = heapq.heappop(heap)
            if type(vertex) is tuple:
                # Lazy array-round child: check staleness on the byte
                # key first so stale pops never pay materialization.
                if (
                    best_priority.get((vertex[0], False), -math.inf)
                    > -neg_priority + 1e-12
                ):
                    continue  # stale heap entry
                vertex = materialize_lazy(vertex)
            else:
                key = (
                    vertex.key
                    if vertex.key is not None
                    else vertex.configuration,
                    vertex.terminal,
                )
                if best_priority.get(key, -math.inf) > -neg_priority + 1e-12:
                    continue  # stale heap entry
            if vertex.configuration is None:
                # Array-core lazy child popped for expansion: build the
                # configuration now (stale pops above never pay this).
                parent_config, delta = vertex.pending_config
                (vm_id, placement), = delta
                vertex.configuration = (
                    parent_config.remove(vm_id)
                    if placement is None
                    else parent_config.replace(vm_id, placement)
                )
                vertex.pending_config = None
            if vertex.terminal:
                result_vertex = vertex
                break
            if expansions >= settings.max_expansions:
                result_vertex = best_terminal
                break
            if deadline is not None and (
                time.perf_counter() - wall_start >= deadline
            ):
                # Cooperative watchdog check, once per expansion (and
                # again before an array round's cost predictions): the
                # wall time can overshoot the deadline by at most one
                # expansion round.
                deadline_hit = True
                result_vertex = best_terminal
                break
            expansions += 1
            if expand_hist is not None:
                expand_t0 = time.perf_counter()
            if len(vertex.actions) >= settings.max_plan_actions:
                continue

            with _phases.phase("enumerate"):
                if incremental:
                    blocks: list = []
                    possible = self._enumerate_actions(
                        vertex.configuration, ideal_caps, blocks_out=blocks
                    )
                else:
                    possible = self._enumerate_actions(
                        vertex.configuration, ideal_caps
                    )
            parent_steady = steady_of(vertex)
            children: list[_Vertex] = []
            tick = settings.per_vertex_seconds
            if incremental:
                # Array round (DESIGN.md §13): validity, ranking and
                # the per-child reductions run as matrix kernels over
                # the plan's pre-encoded columns; ``predict_round``
                # then predicts costs for the selected (pre-validated)
                # actions only.
                state = vertex_state(vertex)
                plan_cache = self._round_plan_cache
                plan_key = tuple(map(id, blocks))
                plan = plan_cache.get(plan_key)
                if plan is None:
                    if len(plan_cache) >= _ROUND_ACTION_CACHE_LIMIT:
                        plan_cache.clear()
                    plan = RoundPlan(blocks, len(possible))
                    plan_cache[plan_key] = plan
                counts = (
                    replica_tier_counts(self.catalog, vertex.configuration)
                    if plan.remove_checks
                    else None
                )
                valid_idx = np.flatnonzero(plan.valid_mask(counts))
                n_valid = valid_idx.size
                values = abasis.round_values(plan)
                parent_rows = abasis.parent_rows(vertex.key)
                if _telemetry.enabled:
                    _telemetry.registry.counter("solver.array_rounds").inc()
                if pruning and len(possible) > 1:
                    tick += n_valid * settings.per_child_apply_seconds
                    dist_full = abasis.distances(state, plan, values)
                    # Stable argsort over the valid columns ranks
                    # exactly like the serial sort by (distance,
                    # enumeration order).
                    ranked = np.argsort(dist_full[valid_idx], kind="stable")
                    keep = max(
                        1, math.ceil(settings.prune_fraction * n_valid)
                    )
                    if n_valid > keep:
                        pruned_away += n_valid - keep
                        if collector is not None:
                            collector.note_pruned(
                                n_valid - keep,
                                float(dist_full[valid_idx][ranked[keep]]),
                            )
                    sel = valid_idx[ranked[:keep]]
                    actions_sel = [possible[k] for k in sel.tolist()]
                    predictions = costs.predict_round(
                        vertex.configuration, actions_sel, round_expired
                    )
                    with _phases.phase("merge"):
                        children = build_children_array(
                            vertex,
                            state,
                            parent_steady,
                            plan,
                            values,
                            sel,
                            actions_sel,
                            predictions,
                            dist_full[sel],
                            parent_rows,
                        )
                    tick += len(children) * settings.per_child_eval_seconds
                else:
                    sel = valid_idx
                    actions_sel = (
                        possible
                        if n_valid == plan.n
                        else [possible[k] for k in sel.tolist()]
                    )
                    predictions = costs.predict_round(
                        vertex.configuration, actions_sel, round_expired
                    )
                    with _phases.phase("merge"):
                        children = build_children_array(
                            vertex,
                            state,
                            parent_steady,
                            plan,
                            values,
                            sel,
                            actions_sel,
                            predictions,
                            None,
                            parent_rows,
                        )
                    tick += len(children) * (
                        settings.per_child_apply_seconds
                        + settings.per_child_eval_seconds
                    )
                # A cold parent (solver state evicted, or first touch
                # under this workload key) is solved once, so its
                # candidate children's terminal twins re-solve only
                # their action's tiers instead of solving in full.
                if not self.estimator.has_state(
                    vertex.configuration, key=wkey
                ):
                    self.estimator.prime(
                        vertex.configuration, workloads, key=wkey
                    )
            elif pruning and len(possible) > 1:
                # Pruned expansion (the full path): generate
                # configurations, keep the 5% closest to the ideal, and
                # only fully evaluate those — the paper's "decreasing
                # search width of each vertex".
                reachable: list[tuple] = []
                for order, action in enumerate(possible):
                    try:
                        new_config = action.apply(
                            vertex.configuration, self.catalog, self.limits
                        )
                    except ActionError:
                        continue
                    distance = vertex_distance(new_config)
                    reachable.append((distance, order, action, new_config))
                tick += len(reachable) * settings.per_child_apply_seconds
                reachable.sort(key=lambda item: (item[0], item[1]))
                keep = max(
                    1, math.ceil(settings.prune_fraction * len(reachable))
                )
                if len(reachable) > keep:
                    pruned_away += len(reachable) - keep
                    if collector is not None:
                        collector.note_pruned(
                            len(reachable) - keep, reachable[keep][0]
                        )
                with _phases.phase("merge"):
                    for _, _, action, new_config in reachable[:keep]:
                        child = build_child(
                            vertex, action, parent_steady, new_config
                        )
                        if child is not None:
                            children.append(child)
                tick += len(children) * settings.per_child_eval_seconds
            else:
                for action in possible:
                    child = build_child(vertex, action, parent_steady)
                    if child is not None:
                        children.append(child)
                tick += len(children) * (
                    settings.per_child_apply_seconds
                    + settings.per_child_eval_seconds
                )
            generated += len(children)
            if expand_hist is not None:
                expand_hist.observe(time.perf_counter() - expand_t0)
            if deadline_hit:
                # The deadline expired before this round's cost
                # predictions; its children are discarded and the
                # search commits to the best incumbent found in time.
                result_vertex = best_terminal
                break

            # Self-aware accounting (Algorithm 1's T, UT, UpwrT, UH).
            elapsed_search += tick
            accrued_current += tick * current_rate
            accrued_search_power += tick * search_power_rate
            budget -= tick * budget_rate
            if settings.self_aware and not pruning:
                if (accrued_current + accrued_search_power) >= budget or (
                    elapsed_search >= delay_threshold
                ):
                    pruning = True
            if (
                settings.self_aware
                and best_terminal is not None
                and elapsed_search
                >= settings.hard_stop_factor * delay_threshold
            ):
                # Self-awareness in the limit: the decision itself has
                # become too expensive — commit to the best incumbent.
                result_vertex = best_terminal
                break

            # Lazy payload tuples go through an inlined ``push`` (same
            # dedup rule, same counter discipline, same heap shape —
            # the tie-breaker is the child's action count, a round
            # constant); real vertices take the full path.  Candidates
            # are never lazy, so terminal twins are not skipped.
            child_rank = -(len(vertex.actions) + 1)
            with _phases.phase("frontier"):
                for child in children:
                    if type(child) is tuple:
                        pkey = (child[0], False)
                        known = best_priority.get(pkey)
                        priority = child[1]
                        if known is not None and known >= priority - 1e-12:
                            continue
                        best_priority[pkey] = priority
                        heapq.heappush(
                            heap,
                            (-priority, child_rank, -next(counter), child),
                        )
                    else:
                        push_with_terminal(child)

        if result_vertex is None:
            result_vertex = best_terminal
        if result_vertex is None:
            # Nothing reachable improved on staying put; keep current.
            result_vertex = _Vertex(
                configuration=current,
                actions=(),
                accrued=0.0,
                elapsed=0.0,
                terminal=True,
                is_candidate=root.is_candidate,
            )
            result_vertex.utility = window * current_rate

        return run.finish(
            result_vertex.actions,
            result_vertex.configuration,
            result_vertex.utility,
            expansions=expansions,
            decision_seconds=max(settings.per_vertex_seconds, elapsed_search),
            generated=generated,
            pruned=pruned_away,
            candidates=candidate_pushes,
            pruning_activated=pruning,
            optimal=expansions < settings.max_expansions and not deadline_hit,
            incremental=incremental,
            deadline_aborted=deadline_hit,
            frontier=(len(heap), -heap[0][0] if heap else None),
        )

    # -- action enumeration ------------------------------------------------------

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

        With ``blocks_out`` (array core), the matching ``ActionBlock``
        per emitted sublist is appended to it — cached under the same
        keys as the sublists themselves, so a cache-warm round encodes
        nothing.  Concatenated, the blocks' columns mirror the returned
        action list position for position.
        """
        settings = self.settings
        kinds = settings.allowed_kinds
        limits = self.limits
        step = limits.cpu_cap_step
        actions: list[AdaptationAction] = []
        cache = self._action_cache
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

        def interned(key: tuple, factory, *args) -> AdaptationAction:
            action = cache.get(key)
            if action is None:
                action = factory(*args)
                cache[key] = action
            return action

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
                        interned(("inc", vm_id), IncreaseCpu, vm_id, step)
                    )
                if "decrease_cpu" in kinds and (
                    placement.cpu_cap - step >= limits.min_vm_cpu_cap - 1e-9
                ):
                    sub.append(
                        interned(("dec", vm_id), DecreaseCpu, vm_id, step)
                    )
                if target is not None:
                    steps = round((target - placement.cpu_cap) / step)
                    if steps > 1 and "increase_cpu" in kinds:
                        sub.append(
                            interned(
                                ("inc", vm_id, steps),
                                IncreaseCpu,
                                vm_id,
                                step,
                                steps,
                            )
                        )
                    elif steps < -1 and "decrease_cpu" in kinds:
                        sub.append(
                            interned(
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
                                interned(
                                    ("mig", vm_id, host_id),
                                    MigrateVm,
                                    vm_id,
                                    host_id,
                                )
                            )
                if can_remove:
                    sub.append(
                        interned(("rem", vm_id), RemoveReplica, vm_id)
                    )
                vm_cache[sub_key] = sub
            actions.extend(sub)
            if blocks_out is not None:
                block = block_cache.get(sub_key)
                if block is None:
                    block = vm_block(
                        statics,
                        self.catalog,
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
                        caps = {settings.replica_cap}
                        if ideal_cap is not None:
                            caps.add(ideal_cap)
                        for host_id in powered:
                            for cap in sorted(caps):
                                sub.append(
                                    interned(
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

        if "power_on" in kinds:
            for host_id in self.host_ids:
                if host_id not in configuration.powered_hosts:
                    actions.append(
                        interned(("pon", host_id), PowerOnHost, host_id)
                    )
                    if blocks_out is not None:
                        blocks_out.append(statics.power_block)
        if "power_off" in kinds:
            for host_id in sorted(configuration.idle_hosts()):
                actions.append(
                    interned(("poff", host_id), PowerOffHost, host_id)
                )
                if blocks_out is not None:
                    blocks_out.append(statics.power_block)
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
