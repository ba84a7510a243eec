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
for callers that score many one-VM moves off a *capacity plan* (VM ->
cap, each VM alone on its pseudo host as ``pseudo_configuration``
places it) and its tier solutions, without a ``SolveState``: the
Perf-Pwr walks.  It reads the moved tier's replicas from the plan's
caps, takes the tier's solution from the caller's memo or runs the
kernel on those caps (a tier's solution depends only on its placed
replicas' caps and its application's rate), and recomposes only its
application's response time, building no configuration or estimate.

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

from repro.core.config import Configuration, Placement, VmCatalog
from repro.perfmodel.lqn import LqnParameters, PerformanceEstimate
from repro.telemetry import runtime as _telemetry


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
        self._parameters = parameters
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
        caps: Mapping[str, float],
        tiers: Mapping[tuple[str, str], TierSolution],
        workloads: Mapping[str, float],
        vm_id: str,
        cap: Optional[float],
        solved: dict[tuple, TierSolution],
    ) -> tuple[TierSolution, float]:
        """Re-solve one tier of the capacity plan ``caps`` with
        ``vm_id``'s cap set to ``cap`` (``None``: removed), building no
        configuration or estimate.

        ``tiers`` are the plan's tier solutions under ``workloads``.
        ``solved`` is the caller's tier-solve memo, keyed by the tier
        and its placed replicas' caps: it must hold solutions under
        this workload vector only, and a miss runs the tier kernel and
        stores its solution.  Returns the tier's solution and its
        application's response time recomposed from the other tier
        terms, both bit-identical to what ``update_state`` of the moved
        plan's ``pseudo_configuration`` holds.  ``vm_id``'s application
        must be in ``workloads``.
        """
        app_name, tier_name = key = self._vm_tier[vm_id]
        placed = []
        for member in self._tier_vms[key]:
            member_cap = cap if member == vm_id else caps.get(member)
            if member_cap is not None:
                placed.append((member, member_cap))
        memo_key = (key, tuple(placed))
        solution = solved.get(memo_key)
        if solution is None:
            solution = solved[memo_key] = self._tier_kernel(
                app_name,
                tier_name,
                [
                    (member, Placement(_pseudo_host(member), member_cap))
                    for member, member_cap in placed
                ],
                workloads[app_name],
                None,
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

    def solve_batch(
        self,
        configurations: Sequence[Configuration],
        workloads: Mapping[str, float],
    ) -> list[SolveState]:
        """:meth:`solve_state` of each configuration.  No caller in the
        package; it stays while the closed-loop benchmark's tracer
        (``perfbench/tracing.py``) wraps it by name."""
        return [
            self.solve_state(configuration, workloads)
            for configuration in configurations
        ]

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


def pseudo_configuration(caps: Mapping[str, float]) -> Configuration:
    """The capacity plan ``caps`` as a configuration: each VM alone on
    its own pseudo host, so that response times depend only on the caps
    (the plans ``LqnSolver.solve_move`` scores)."""
    placements = {
        vm_id: Placement(_pseudo_host(vm_id), cap)
        for vm_id, cap in caps.items()
    }
    return Configuration(
        placements,
        frozenset(placement.host_id for placement in placements.values()),
    )


def _pseudo_host(vm_id: str) -> str:
    """The pseudo host a capacity plan places ``vm_id`` on."""
    return f"pseudo-{vm_id}"


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
