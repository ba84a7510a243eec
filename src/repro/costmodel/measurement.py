"""Offline cost-measurement campaign (paper §III-C).

The paper measures adaptation costs by deploying a *target* application
alongside a *background* application (all replicas at equal 40% caps),
placing all VMs at random over the hosts, driving both at a workload
level, executing one adaptation action after a warm-up, and recording
(a) the action's duration, (b) the response-time change of the adapted
and co-located applications, and (c) the power change on affected
hosts.  Deltas are averaged over the random placements and written to a
cost table indexed by workload.

Here the role of the physical testbed is played by the hidden
:class:`~repro.cluster.transients.TransientModel`: each trial samples
the true (noisy) footprint of the action, and the campaign's averaging
recovers the underlying curve with residual estimation error — exactly
the fidelity a controller built from offline tables would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.application import Application
from repro.cluster.transients import TransientModel, TransientModelParameters
from repro.core.actions import (
    AdaptationAction,
    AddReplica,
    IncreaseCpu,
    MigrateVm,
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
from repro.costmodel.table import CostEntry, CostTable

#: The paper's measurement grid: 100..800 concurrent sessions, i.e.
#: 12.5..100 req/s under the sessions = 8 x rate mapping.
DEFAULT_WORKLOAD_GRID: tuple[float, ...] = (12.5, 25.0, 37.5, 50.0, 62.5, 75.0, 87.5, 100.0)


@dataclass
class MeasurementCampaign:
    """Configuration of one offline cost-measurement campaign."""

    target_app: Application
    background_app: Application
    host_ids: Sequence[str]
    limits: ConstraintLimits
    workload_grid: Sequence[float] = DEFAULT_WORKLOAD_GRID
    placements_per_point: int = 8
    measurement_cap: float = 0.4

    def __post_init__(self) -> None:
        if len(self.host_ids) < 2:
            raise ValueError("campaign needs at least two hosts")
        if self.placements_per_point < 1:
            raise ValueError("placements_per_point must be >= 1")


def _random_placement(
    catalog: VmCatalog,
    campaign: MeasurementCampaign,
    rng: np.random.Generator,
) -> Configuration:
    """Place every replica at the measurement cap on random hosts.

    Respects the per-host constraints by rejection: hosts are drawn
    uniformly and redrawn while the placement would violate memory, VM
    count, or cap-sum limits (always satisfiable on the campaign rig).
    """
    placements: dict[str, Placement] = {}
    hosts = list(campaign.host_ids)
    limits = campaign.limits
    cap = campaign.measurement_cap
    # Per host, in placement order: the caps placed there (summed with
    # ``sum()`` each time, so the float operands and their order are
    # those of a scan over every placement) and the guest memory.
    host_caps: dict[str, list[float]] = {host: [] for host in hosts}
    host_memory: dict[str, int] = {host: 0 for host in hosts}

    def fits(host_id: str) -> bool:
        caps = host_caps[host_id]
        return (
            sum(caps) + cap <= limits.max_total_cpu_cap + 1e-9
            and len(caps) + 1 <= limits.max_vms_per_host
            and host_memory[host_id] + 200 <= limits.guest_memory_mb
        )

    for descriptor in catalog:
        candidates = [host for host in hosts if fits(host)]
        if not candidates:
            raise RuntimeError(
                "campaign rig too small for the applications being measured"
            )
        host_id = candidates[int(rng.integers(len(candidates)))]
        placements[descriptor.vm_id] = Placement(host_id, cap)
        host_caps[host_id].append(cap)
        host_memory[host_id] += descriptor.memory_mb
    return Configuration(placements, frozenset(hosts))


def _actions_for_kind(
    kind: str,
    tier: str,
    configuration: Configuration,
    catalog: VmCatalog,
    campaign: MeasurementCampaign,
    rng: np.random.Generator,
) -> Optional[AdaptationAction]:
    """Build one measurable action instance of the given family."""
    app_name = campaign.target_app.name
    tier_vms = [
        descriptor.vm_id
        for descriptor in catalog.for_tier(app_name, tier)
        if configuration.is_placed(descriptor.vm_id)
    ]
    if kind == "migrate":
        if not tier_vms:
            return None
        vm_id = tier_vms[int(rng.integers(len(tier_vms)))]
        current = configuration.placement_of(vm_id)
        assert current is not None
        targets = [
            host
            for host in campaign.host_ids
            if host != current.host_id
        ]
        return MigrateVm(vm_id, targets[int(rng.integers(len(targets)))])
    if kind == "add_replica":
        spec = campaign.target_app.tier(tier)
        placed = configuration.replica_count(catalog, app_name, tier)
        if placed >= spec.max_replicas:
            # Free one slot so the addition can be measured.
            return None
        host = campaign.host_ids[int(rng.integers(len(campaign.host_ids)))]
        return AddReplica(app_name, tier, host, campaign.measurement_cap)
    if kind == "remove_replica":
        if len(tier_vms) < 2:
            return None
        return RemoveReplica(tier_vms[int(rng.integers(len(tier_vms)))])
    if kind == "increase_cpu":
        if not tier_vms:
            return None
        return IncreaseCpu(tier_vms[int(rng.integers(len(tier_vms)))])
    raise ValueError(f"unsupported campaign action kind {kind!r}")


def _measure_kind(
    kind: str,
    tier: str,
    catalog: VmCatalog,
    campaign: MeasurementCampaign,
    transients: TransientModel,
    table: CostTable,
    rng: np.random.Generator,
) -> None:
    """Measure one (kind, tier) pair across the workload grid."""
    for workload in campaign.workload_grid:
        durations: list[float] = []
        primary: list[float] = []
        colocated: list[float] = []
        power: list[float] = []
        for _ in range(campaign.placements_per_point):
            configuration = _random_placement(catalog, campaign, rng)
            if kind == "add_replica":
                # Measure addition from a configuration with a free slot.
                placed = [
                    descriptor.vm_id
                    for descriptor in catalog.for_tier(
                        campaign.target_app.name, tier
                    )
                    if configuration.is_placed(descriptor.vm_id)
                ]
                if len(placed) > 1:
                    configuration = configuration.remove(placed[-1])
            action = _actions_for_kind(
                kind, tier, configuration, catalog, campaign, rng
            )
            if action is None:
                continue
            workloads = {
                campaign.target_app.name: workload,
                campaign.background_app.name: workload,
            }
            spec = transients.sample(action, configuration, workloads)
            durations.append(spec.duration)
            primary.append(spec.rt_delta.get(campaign.target_app.name, 0.0))
            background_delta = spec.rt_delta.get(
                campaign.background_app.name
            )
            if background_delta is not None:
                colocated.append(background_delta)
            power.append(spec.total_power_delta())
        if not durations:
            continue
        table.add(
            kind,
            tier,
            workload,
            CostEntry(
                duration=float(np.mean(durations)),
                primary_rt_delta=float(np.mean(primary)),
                colocated_rt_delta=(
                    float(np.mean(colocated)) if colocated else 0.0
                ),
                power_delta_watts=float(np.mean(power)),
            ),
        )


def run_campaign(
    campaign: MeasurementCampaign,
    transient_parameters: Optional[TransientModelParameters] = None,
    rng: Optional[np.random.Generator] = None,
) -> CostTable:
    """Run the full offline campaign and return the populated table.

    Measures migration, replica addition/removal, and CPU retuning per
    replicable tier, plus host power cycling (tier-independent).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    catalog = VmCatalog(
        campaign.target_app.vm_descriptors()
        + campaign.background_app.vm_descriptors()
    )
    transients = TransientModel(catalog, transient_parameters, rng)
    table = CostTable()

    for tier_spec in campaign.target_app.tiers:
        tier = tier_spec.name
        _measure_kind("migrate", tier, catalog, campaign, transients, table, rng)
        _measure_kind(
            "increase_cpu", tier, catalog, campaign, transients, table, rng
        )
        if tier_spec.max_replicas > tier_spec.min_replicas:
            _measure_kind(
                "add_replica", tier, catalog, campaign, transients, table, rng
            )
            _measure_kind(
                "remove_replica", tier, catalog, campaign, transients, table, rng
            )

    # CPU decrease mirrors increase (same hypercall path).
    for workload in campaign.workload_grid:
        for tier_spec in campaign.target_app.tiers:
            try:
                entry = table.lookup("increase_cpu", tier_spec.name, workload)
            except KeyError:
                continue
            try:
                table.add("decrease_cpu", tier_spec.name, workload, entry)
            except ValueError:
                pass

    # Host power cycling: measured once, workload-independent (paper
    # §V-B: start ~90 s / ~80 W, shutdown ~30 s / ~20 W).
    sample_config = _random_placement(catalog, campaign, rng)
    spare = campaign.host_ids[0]
    on_specs = [
        transients.sample(
            PowerOnHost(spare + "-spare"),
            sample_config,
            {campaign.target_app.name: 50.0},
        )
        for _ in range(campaign.placements_per_point)
    ]
    off_specs = [
        transients.sample(
            PowerOffHost(spare + "-spare"),
            Configuration({}, frozenset({spare + "-spare"})),
            {campaign.target_app.name: 50.0},
        )
        for _ in range(campaign.placements_per_point)
    ]
    table.add(
        "power_on",
        "-",
        0.0,
        CostEntry(
            duration=float(np.mean([spec.duration for spec in on_specs])),
            primary_rt_delta=0.0,
            colocated_rt_delta=0.0,
            power_delta_watts=float(
                np.mean([spec.total_power_delta() for spec in on_specs])
            ),
        ),
    )
    table.add(
        "power_off",
        "-",
        0.0,
        CostEntry(
            duration=float(np.mean([spec.duration for spec in off_specs])),
            primary_rt_delta=0.0,
            colocated_rt_delta=0.0,
            power_delta_watts=float(
                np.mean([spec.total_power_delta() for spec in off_specs])
            ),
        ),
    )
    return table
