"""Approximate solver for the layered queueing network.

Each application tier is served by its active replicas; replica ``j``
is a VM with CPU cap ``c_j`` modeled as a processor-sharing queue of
capacity ``c_j``.  Incoming work is balanced across replicas in
proportion to their caps (the paper's front ends distribute requests to
replicas), which makes the per-replica utilization uniform:

    rho = lambda * D / sum_j c_j

with ``D`` the mix-weighted, virtualization-inflated CPU demand per
request at the tier.  The processor-sharing residence time per request
routed to replica ``j`` is ``(D / c_j) / (1 - rho)``; the tier response
time aggregates over the cap-proportional routing probabilities, and
the end-to-end response time adds tier times plus network latency per
request and per synchronous call.

Beyond the saturation knee the hyperbolic waiting curve is linearized
(slope ``overload_slope_seconds``) so that overloaded configurations
get a finite but strongly penalized response time — necessary for the
optimizers, which must be able to rank infeasible-but-improving moves.

**Incremental path.**  The adaptation search evaluates long chains of
configurations that differ by a single action — one VM's cap, one
placement, one powered host.  ``solve_state`` returns a
:class:`SolveState` carrying the per-tier solution terms alongside the
estimate, and ``update_state`` re-solves only the tiers owning the
changed VMs, reusing every other tier's terms verbatim.  Both paths
share the same per-tier kernel (``_tier_kernel``) and recompose sums in
the same canonical order, so a delta-solved estimate is *bit-identical*
to a from-scratch ``solve`` of the same configuration — no drift can
accumulate along a search path.  ``solve_move`` goes one step further
for callers that score many one-VM moves off one configuration and its
tier solutions (the Perf-Pwr walks, which keep both without a
``SolveState``): it re-solves the moved VM's tier and recomposes only
its application's response time, without building the moved
configuration or its estimate.

**Batched path.**  ``solve_batch`` evaluates a list of candidate
configurations as one numpy-vectorized batch: per tier, the replica
caps of every candidate form a matrix, utilizations and
processor-sharing terms are computed element-wise across the batch,
and the linearized overload tail is applied column-wise.  Sums are
accumulated column-by-column in catalog order — the same sequence of
scalar additions the scalar kernel performs — so each batched solution
is *bit-identical* to ``solve_state`` of the same configuration (the
equivalence is enforced by ``tests/test_lqn.py``).  No search calls it;
it stays while the closed-loop benchmark's tracer
(``perfbench/tracing.py``) wraps it by name.

**Host contract.**  Every placement's host must be powered on — this is
enforced by :class:`~repro.core.config.Configuration` itself — and the
returned ``host_utilizations`` contains exactly one entry per powered
host (0.0 for idle hosts).  The solver indexes hosts directly instead
of silently adopting unknown ones, so a configuration that somehow
violated the invariant would fail loudly rather than report power for
hosts the power model never sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import ConfigCodec, Configuration, Placement, VmCatalog
from repro.perfmodel.lqn import LqnParameters, PerformanceEstimate
from repro.telemetry import phases as _phases
from repro.telemetry import runtime as _telemetry

#: Batched-solve codecs are cached per powered-host universe; a search
#: cycles through few distinct universes, but an unbounded cache could
#: grow across long simulations.
_CODEC_CACHE_LIMIT = 128


@dataclass(frozen=True)
class _BatchArrays:
    """A whole batch encoded numerically: ``[batch, n_vms]`` matrices."""

    codec: ConfigCodec
    caps: np.ndarray
    hosts: np.ndarray


@dataclass(frozen=True)
class TierSolution:
    """Solved terms of one (application, tier) pair.

    ``utilization`` is ``None`` when the tier contributes nothing (no
    replicas placed and no demand routed to it); ``term`` is the
    seconds this tier adds to the application response time, including
    the per-visit network latency (or the overload penalty of a dormant
    tier that still receives work).
    """

    utilization: Optional[float]
    term: float
    saturated: bool
    #: ``(vm_id, served utilization)`` per placed replica, in placement
    #: iteration order.
    vm_utilizations: tuple[tuple[str, float], ...]
    #: ``(host_id, busy CPU contribution)`` per placed replica, in the
    #: same order the full solve accumulates host busy terms.
    host_busy: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class SolveState:
    """A solved configuration plus the per-tier terms it was built from.

    Feed it back into :meth:`LqnSolver.update_state` together with the
    set of VMs an action touched to obtain the neighbouring
    configuration's estimate at the cost of re-solving one tier.
    """

    configuration: Configuration
    tiers: Mapping[tuple[str, str], TierSolution]
    estimate: PerformanceEstimate


class LqnSolver:
    """Evaluate response times and utilizations for configurations."""

    def __init__(self, catalog: VmCatalog, parameters: LqnParameters) -> None:
        self._catalog = catalog
        self._parameters = parameters
        self._vm_ids = catalog.vm_ids()
        self._vm_slots = {vm_id: i for i, vm_id in enumerate(self._vm_ids)}
        self._codec_cache: dict[frozenset, ConfigCodec] = {}
        self._tier_col_cache: dict[tuple[str, str], np.ndarray] = {}
        # (app, tier) -> vm ids, precomputed once; placement filtering
        # happens per solve call.
        self._tier_vms: dict[tuple[str, str], tuple[str, ...]] = {}
        for descriptor in catalog:
            key = (descriptor.app_name, descriptor.tier_name)
            self._tier_vms.setdefault(key, ())
            self._tier_vms[key] += (descriptor.vm_id,)
        # app -> [(tier name, vm ids)] in catalog order, and the owning
        # tier of each VM — both used to scope incremental re-solves.
        self._app_tiers: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        self._vm_tier: dict[str, tuple[str, str]] = {}
        for (app_name, tier_name), vm_ids in self._tier_vms.items():
            self._app_tiers.setdefault(app_name, []).append(
                (tier_name, vm_ids)
            )
            for vm_id in vm_ids:
                self._vm_tier[vm_id] = (app_name, tier_name)

    @property
    def parameters(self) -> LqnParameters:
        """The parameter set this solver evaluates with."""
        return self._parameters

    def with_parameters(self, parameters: LqnParameters) -> "LqnSolver":
        """A solver over the same catalog with different parameters."""
        return LqnSolver(self._catalog, parameters)

    # -- full solve -----------------------------------------------------------

    def solve(
        self,
        configuration: Configuration,
        workloads: Mapping[str, float],
        demand_multipliers: Optional[Mapping[tuple[str, str], float]] = None,
    ) -> PerformanceEstimate:
        """Steady-state estimate for ``configuration`` under ``workloads``.

        Parameters
        ----------
        configuration:
            The VM placement and caps to evaluate.  May be an
            intermediate (constraint-violating) configuration; the
            solver only uses caps and placements.
        workloads:
            Application name -> offered request rate (req/s).
        demand_multipliers:
            Optional per-``(app, tier)`` service-demand multipliers;
            the testbed uses these to inject per-interval noise.
        """
        if _telemetry.enabled:
            _telemetry.registry.counter("solver.full_solves").inc()
        tiers = self._solve_tiers(configuration, workloads, demand_multipliers)
        return self._compose(configuration, workloads, tiers)

    def solve_state(
        self,
        configuration: Configuration,
        workloads: Mapping[str, float],
    ) -> SolveState:
        """Like :meth:`solve`, but keep the per-tier decomposition.

        States never carry demand multipliers: they exist for the
        optimizers' incremental hot path, which always evaluates the
        calibrated model.
        """
        if _telemetry.enabled:
            _telemetry.registry.counter("solver.full_solves").inc()
        tiers = self._solve_tiers(configuration, workloads, None)
        return SolveState(
            configuration=configuration,
            tiers=tiers,
            estimate=self._compose(configuration, workloads, tiers),
        )

    # -- incremental solve -----------------------------------------------------

    def update_state(
        self,
        state: SolveState,
        configuration: Configuration,
        workloads: Mapping[str, float],
        changed_vms: Iterable[str],
    ) -> SolveState:
        """Delta solve: re-use ``state``, re-solving only dirty tiers.

        ``configuration`` must differ from ``state.configuration`` only
        in the placements/caps of ``changed_vms`` and in the powered
        host set (power cycles never dirty a tier: an empty host has no
        busy terms), and ``workloads`` must match the vector the state
        was solved under — the caller owns both invariants.  The
        returned estimate is bit-identical to a full ``solve`` of
        ``configuration``.
        """
        dirty: set[tuple[str, str]] = set()
        for vm_id in changed_vms:
            key = self._vm_tier.get(vm_id)
            if key is not None and key[0] in workloads:
                dirty.add(key)
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter("solver.incremental_solves").inc()
            registry.counter("solver.tiers_resolved").inc(len(dirty))
        if not dirty:
            tiers = state.tiers
        else:
            tiers = dict(state.tiers)
            for app_name, tier_name in dirty:
                tiers[(app_name, tier_name)] = self._solve_tier(
                    app_name,
                    tier_name,
                    self._tier_vms[(app_name, tier_name)],
                    configuration,
                    workloads[app_name],
                    None,
                )
        return SolveState(
            configuration=configuration,
            tiers=tiers,
            estimate=self._compose(configuration, workloads, tiers),
        )

    def solve_move(
        self,
        configuration: Configuration,
        tiers: Mapping[tuple[str, str], TierSolution],
        workloads: Mapping[str, float],
        vm_id: str,
        placement: Optional[Placement],
    ) -> tuple[TierSolution, float]:
        """Re-solve one tier of ``configuration`` with ``vm_id`` moved
        to ``placement`` (``None``: removed), building no configuration
        or estimate.

        ``tiers`` are ``configuration``'s tier solutions under
        ``workloads`` (a ``SolveState``'s, or a caller's own record of
        them).  Returns the tier's solution and its application's
        response time recomposed from the other tier terms, both
        bit-identical to what ``update_state`` of the moved
        configuration holds.  ``vm_id``'s application must be in
        ``workloads``.
        """
        app_name, tier_name = key = self._vm_tier[vm_id]
        placed = []
        for member in self._tier_vms[key]:
            if member == vm_id:
                if placement is not None:
                    placed.append((member, placement))
            elif configuration.is_placed(member):
                placed.append((member, configuration.placement_of(member)))
        solution = self._tier_kernel(
            app_name, tier_name, placed, workloads[app_name], None
        )
        if _telemetry.enabled:
            _telemetry.registry.counter("solver.tiers_resolved").inc()
        # The response time as _compose sums it: tier terms in catalog
        # order, added one at a time to the per-request latency.
        response = self._parameters.network_latency_per_request
        for name, _ in self._app_tiers[app_name]:
            response += (
                solution if name == tier_name else tiers[(app_name, name)]
            ).term
        return solution, response

    # -- batched solve ---------------------------------------------------------

    def solve_batch(
        self,
        configurations: Sequence[Configuration],
        workloads: Mapping[str, float],
    ) -> list[SolveState]:
        """Solve many configurations under one workload vector at once.

        The per-tier arithmetic runs vectorized across the batch (see
        the module docstring's *Batched path*); every returned
        :class:`SolveState` is bit-identical to ``solve_state`` of the
        same configuration, so batch results interoperate freely with
        the incremental path (``update_state`` accepts them).

        The whole batch is encoded into ``[batch, n_vms]`` cap/host-index
        matrices via :class:`~repro.core.config.ConfigCodec`, and each
        tier's columns are sliced out of them.

        Like :meth:`solve_state`, batches never carry demand
        multipliers: they exist for the optimizers' hot path, which
        always evaluates the calibrated model.
        """
        batch = len(configurations)
        if batch == 0:
            return []
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter("solver.batch_solves").inc()
            registry.counter("solver.batch_configs").inc(batch)
        # The whole batched solve is the search's "solve" phase (see
        # repro.telemetry.phases); a no-op when no profile is active.
        with _phases.phase("solve"):
            encoded = self._encode_batch(configurations)
            per_config_tiers: list[dict[tuple[str, str], TierSolution]] = [
                {} for _ in range(batch)
            ]
            for app_name, rate in workloads.items():
                for tier_name, vm_ids in self._app_tiers.get(app_name, ()):
                    solutions = self._solve_tier_batch(
                        app_name, tier_name, vm_ids, encoded, rate
                    )
                    key = (app_name, tier_name)
                    for tiers, solution in zip(per_config_tiers, solutions):
                        tiers[key] = solution
            return [
                SolveState(
                    configuration=configuration,
                    tiers=tiers,
                    estimate=self._compose(configuration, workloads, tiers),
                )
                for configuration, tiers in zip(
                    configurations, per_config_tiers
                )
            ]

    def _encode_batch(
        self, configurations: Sequence[Configuration]
    ) -> _BatchArrays:
        """Encode a batch into cap/host-index matrices over the catalog
        and the batch's powered hosts."""
        union: set[str] = set()
        for configuration in configurations:
            union |= configuration.powered_hosts
        key = frozenset(union)
        codec = self._codec_cache.get(key)
        if codec is None:
            if len(self._codec_cache) >= _CODEC_CACHE_LIMIT:
                self._codec_cache.clear()
            codec = ConfigCodec(self._vm_ids, sorted(union))
            self._codec_cache[key] = codec
        batch = len(configurations)
        count = len(self._vm_ids)
        caps = np.zeros((batch, count))
        hosts = np.full((batch, count), -1, dtype=np.int16)
        vm_slots = self._vm_slots
        host_index = codec.host_index
        for b, configuration in enumerate(configurations):
            for vm_id, placement in configuration.placement_items():
                slot = vm_slots[vm_id]
                caps[b, slot] = placement.cpu_cap
                hosts[b, slot] = host_index[placement.host_id]
        return _BatchArrays(codec, caps, hosts)

    def _tier_cols(self, app_name: str, tier_name: str) -> np.ndarray:
        """Catalog column indices of one tier's VMs (cached)."""
        key = (app_name, tier_name)
        cols = self._tier_col_cache.get(key)
        if cols is None:
            cols = np.array(
                [self._vm_slots[vm_id] for vm_id in self._tier_vms[key]],
                dtype=np.intp,
            )
            self._tier_col_cache[key] = cols
        return cols

    def _solve_tier_batch(
        self,
        app_name: str,
        tier_name: str,
        vm_ids: tuple[str, ...],
        encoded: _BatchArrays,
        rate: float,
    ) -> list[TierSolution]:
        """Vectorized ``_tier_kernel`` across a batch of configurations.

        Bit-identity with the scalar kernel rests on two facts: numpy's
        element-wise float64 arithmetic is the same IEEE-754 operation
        the interpreter performs on Python floats, and every reduction
        here is accumulated column-by-column in catalog order — adding
        ``0.0`` for unplaced replicas, which is exact — so each batch
        element sees the same sequence of scalar additions the loop in
        ``_tier_kernel`` performs.

        The tier's caps and host slots are sliced out of the batch
        matrices, so no placement mapping is scanned.
        """
        cols = self._tier_cols(app_name, tier_name)
        caps = encoded.caps[:, cols]
        host_rows = encoded.hosts[:, cols]
        placed = host_rows >= 0
        params = self._parameters
        batch, count = caps.shape
        demand = params.inflated_demand(app_name, tier_name)
        visits = params.visits(app_name, tier_name)

        # total_cap: column-accumulated in catalog order (0.0 for
        # unplaced replicas — exact, the scalar sum simply skips them).
        total_cap = np.zeros(batch)
        for j in range(count):
            total_cap = total_cap + caps[:, j]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho = np.where(
                total_cap > 0.0,
                np.divide(rate * demand, total_cap),
                np.inf,
            )
            served_rho = np.minimum(rho, 1.0)
            if demand:
                served_rate = np.minimum(rate, total_cap / demand)
            else:
                served_rate = np.full(batch, rate)

            knee = params.saturation_knee
            slope = params.overload_slope_seconds
            tier_time = np.zeros(batch)
            host_busy_cols: list[np.ndarray] = []
            for j in range(count):
                cap_j = caps[:, j]
                routing = np.where(placed[:, j], cap_j / total_cap, 0.0)
                base = np.divide(demand, cap_j)
                ps = np.where(
                    rho < knee,
                    base / (1.0 - rho),
                    base / (1.0 - knee) + (rho - knee) * slope,
                )
                tier_time = tier_time + np.where(
                    placed[:, j], routing * ps, 0.0
                )
                host_busy_cols.append(
                    served_rho * cap_j
                    + routing * served_rate * visits
                    * params.dom0_demand_per_visit
                )

        term = tier_time + visits * params.network_latency_per_visit

        rho_list = rho.tolist()
        term_list = term.tolist()
        served_rho_list = served_rho.tolist()
        busy_lists = [column.tolist() for column in host_busy_cols]
        placed_list = placed.tolist()
        host_slots = host_rows.tolist()
        host_ids = encoded.codec.host_ids

        dormant_active = TierSolution(
            utilization=float("inf"),
            term=params.overload_slope_seconds,
            saturated=True,
            vm_utilizations=(),
            host_busy=(),
        )
        dormant_idle = TierSolution(
            utilization=None,
            term=0.0,
            saturated=False,
            vm_utilizations=(),
            host_busy=(),
        )

        solutions: list[TierSolution] = []
        for b in range(batch):
            row = placed_list[b]
            if not any(row):
                solutions.append(
                    dormant_active
                    if demand > 0 and rate > 0
                    else dormant_idle
                )
                continue
            served = served_rho_list[b]
            vm_utilizations = tuple(
                (vm_id, served)
                for j, vm_id in enumerate(vm_ids)
                if row[j]
            )
            slots = host_slots[b]
            host_busy = tuple(
                (host_ids[slots[j]], busy_lists[j][b])
                for j, vm_id in enumerate(vm_ids)
                if row[j]
            )
            solutions.append(
                TierSolution(
                    utilization=rho_list[b],
                    term=term_list[b],
                    saturated=rho_list[b] >= 1.0,
                    vm_utilizations=vm_utilizations,
                    host_busy=host_busy,
                )
            )
        return solutions

    # -- shared kernels --------------------------------------------------------

    def _solve_tiers(
        self,
        configuration: Configuration,
        workloads: Mapping[str, float],
        demand_multipliers: Optional[Mapping[tuple[str, str], float]],
    ) -> dict[tuple[str, str], TierSolution]:
        tiers: dict[tuple[str, str], TierSolution] = {}
        for app_name, rate in workloads.items():
            for tier_name, vm_ids in self._app_tiers.get(app_name, ()):
                multiplier = (
                    demand_multipliers.get((app_name, tier_name), 1.0)
                    if demand_multipliers
                    else None
                )
                tiers[(app_name, tier_name)] = self._solve_tier(
                    app_name,
                    tier_name,
                    vm_ids,
                    configuration,
                    rate,
                    multiplier,
                )
        return tiers

    def _solve_tier(
        self,
        app_name: str,
        tier_name: str,
        vm_ids: tuple[str, ...],
        configuration: Configuration,
        rate: float,
        demand_multiplier: Optional[float],
    ) -> TierSolution:
        """Solve one tier of ``configuration`` (the full/delta entry)."""
        return self._tier_kernel(
            app_name,
            tier_name,
            [
                (vm_id, configuration.placement_of(vm_id))
                for vm_id in vm_ids
                if configuration.is_placed(vm_id)
            ],
            rate,
            demand_multiplier,
        )

    def _tier_kernel(
        self,
        app_name: str,
        tier_name: str,
        placed: Sequence[tuple[str, Placement]],
        rate: float,
        demand_multiplier: Optional[float],
    ) -> TierSolution:
        """Solve one tier from its placed replicas, in catalog order
        (the kernel shared by the full, delta and move solves)."""
        params = self._parameters
        demand = params.inflated_demand(app_name, tier_name)
        if demand_multiplier is not None:
            demand *= demand_multiplier
        visits = params.visits(app_name, tier_name)

        if not placed:
            # Tier entirely dormant: requests needing it fail to
            # complete; model as full saturation.
            if demand > 0 and rate > 0:
                return TierSolution(
                    utilization=float("inf"),
                    term=params.overload_slope_seconds,
                    saturated=True,
                    vm_utilizations=(),
                    host_busy=(),
                )
            return TierSolution(
                utilization=None,
                term=0.0,
                saturated=False,
                vm_utilizations=(),
                host_busy=(),
            )

        total_cap = sum(placement.cpu_cap for _, placement in placed)
        rho = (rate * demand / total_cap) if total_cap > 0 else float("inf")

        tier_time = 0.0
        served_rho = min(rho, 1.0)
        vm_utilizations: list[tuple[str, float]] = []
        host_busy: list[tuple[str, float]] = []
        for vm_id, placement in placed:
            routing = placement.cpu_cap / total_cap
            base = demand / placement.cpu_cap
            tier_time += routing * _ps_response(
                base,
                rho,
                params.saturation_knee,
                params.overload_slope_seconds,
            )
            vm_utilizations.append((vm_id, served_rho))
            # CPU actually burned: utilization of the cap, plus
            # the Dom-0 work for the visits this replica serves.
            served_rate = min(rate, total_cap / demand if demand else rate)
            host_busy.append(
                (
                    placement.host_id,
                    served_rho * placement.cpu_cap
                    + routing * served_rate * visits
                    * params.dom0_demand_per_visit,
                )
            )
        return TierSolution(
            utilization=rho,
            term=tier_time + visits * params.network_latency_per_visit,
            saturated=rho >= 1.0,
            vm_utilizations=tuple(vm_utilizations),
            host_busy=tuple(host_busy),
        )

    def _compose(
        self,
        configuration: Configuration,
        workloads: Mapping[str, float],
        tiers: Mapping[tuple[str, str], TierSolution],
    ) -> PerformanceEstimate:
        """Assemble an estimate from per-tier solutions.

        Accumulation order (apps in workload order, tiers in catalog
        order, replicas in placement order) matches the historical
        monolithic solve exactly, so composed estimates are bit-stable
        regardless of which tiers were delta-solved.
        """
        params = self._parameters
        estimate = PerformanceEstimate()
        # Every powered host gets a busy entry — hosts carrying no VM
        # idle at 0.0.  Placements on unpowered hosts cannot exist (the
        # Configuration invariant), so busy terms index directly.
        host_busy: dict[str, float] = {
            host_id: 0.0 for host_id in configuration.powered_hosts
        }

        for app_name, rate in workloads.items():
            if rate < 0:
                raise ValueError(f"negative workload for {app_name!r}")
            app_tiers = self._app_tiers.get(app_name)
            if not app_tiers:
                raise KeyError(f"no VMs in catalog for application {app_name!r}")
            response = params.network_latency_per_request
            saturated = False
            for tier_name, _ in app_tiers:
                solution = tiers[(app_name, tier_name)]
                if solution.utilization is not None:
                    estimate.tier_utilizations[(app_name, tier_name)] = (
                        solution.utilization
                    )
                response += solution.term
                if solution.saturated:
                    saturated = True
                for vm_id, utilization in solution.vm_utilizations:
                    estimate.vm_utilizations[vm_id] = utilization
                for host_id, busy in solution.host_busy:
                    host_busy[host_id] += busy

            estimate.response_times[app_name] = response
            if saturated:
                estimate.saturated_apps.add(app_name)

        estimate.host_utilizations = {
            host_id: min(busy, 1.0) for host_id, busy in host_busy.items()
        }
        return estimate

    def app_utilization(
        self, estimate: PerformanceEstimate, app_name: str
    ) -> float:
        """Total host CPU attributable to one app's tiers (for Fig. 5b).

        Sums, over the app's tiers, utilization x allocated cap — i.e.
        the busy CPU fraction the application consumes across hosts.
        """
        total = 0.0
        for (name, tier_name), rho in estimate.tier_utilizations.items():
            if name != app_name or rho == float("inf"):
                continue
            for vm_id in self._tier_vms[(name, tier_name)]:
                util = estimate.vm_utilizations.get(vm_id)
                if util is not None:
                    total += util
        return total


def _ps_response(base: float, rho: float, knee: float, slope: float) -> float:
    """Processor-sharing residence time with linearized overload tail.

    ``base`` is the no-contention service time ``D / c``; below the
    knee the classic ``base / (1 - rho)`` applies, above it the curve
    continues linearly with the given slope so overload ranks sanely.
    """
    if rho < knee:
        return base / (1.0 - rho)
    knee_value = base / (1.0 - knee)
    return knee_value + (rho - knee) * slope
