"""Ground-truth transient costs of adaptation actions.

This module is the simulator's hidden reality: every action execution
samples a duration, per-application response-time deltas, and per-host
power deltas from workload-dependent curves with multiplicative noise.
The curves are shaped to the paper's measurements:

- Fig. 1/7a: live migration raises power on the involved hosts by
  ~8-17% depending on workload;
- Fig. 7b: response-time deltas grow superlinearly with load, from
  tens of milliseconds at 100 sessions to ~700 ms at 800 sessions;
- Fig. 7c: adaptation delays range from ~10 s (light migration) to
  ~70 s (MySQL replica addition with state sync);
- §V-B: host start ~90 s at ~80 W, shutdown ~30 s at ~20 W.

The controller never reads these curves; it sees them only through the
offline cost-measurement campaign (:mod:`repro.costmodel.measurement`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.core.actions import (
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
from repro.core.config import Configuration, VmCatalog


@dataclass(frozen=True)
class TransientSpec:
    """Sampled transient footprint of one action execution."""

    duration: float
    rt_delta: Mapping[str, float] = field(default_factory=dict)
    power_delta: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        object.__setattr__(self, "rt_delta", dict(self.rt_delta))
        object.__setattr__(self, "power_delta", dict(self.power_delta))

    def total_power_delta(self) -> float:
        """Sum of per-host power deltas in watts."""
        return sum(self.power_delta.values())


@dataclass(frozen=True)
class TransientModelParameters:
    """Shape parameters of the true transient-cost curves."""

    #: VM memory transfer seconds per MB at the testbed's 100 Mbps.
    transfer_seconds_per_mb: float = 0.08
    #: Pre-copy dirty-page inflation per unit of normalized workload.
    dirty_page_factor: float = 1.2
    #: Response-time delta (seconds) of a migration at zero load.
    migration_rt_base: float = 0.05
    #: RT-delta growth with normalized load (Fig. 7b ~0.7 s at peak);
    #: the exponent keeps the *relative* impact growing with load too
    #: (Fig. 1b), since baseline response times grow as well.
    migration_rt_peak: float = 0.65
    migration_rt_exponent: float = 3.0
    #: Fraction of the primary RT delta felt by co-located applications.
    colocated_rt_fraction: float = 0.4
    #: Power delta fraction at zero / full normalized load (Fig. 7a).
    power_delta_base: float = 0.08
    power_delta_peak: float = 0.17
    #: Reference host draw used to convert fractional power deltas.
    reference_host_watts: float = 80.0
    #: MySQL replica-state sync: base seconds + per-normalized-load.
    db_sync_base: float = 15.0
    db_sync_per_load: float = 25.0
    #: Application-server warm-up on replica addition.
    app_sync_base: float = 5.0
    app_sync_per_load: float = 5.0
    #: CPU cap retune: one hypercall round trip.
    cap_change_seconds: float = 1.0
    #: Workload normalization ceiling (the paper's 100 req/s range).
    workload_scale: float = 100.0
    #: Relative noise (log-normal sigma) on sampled values.
    noise: float = 0.08
    #: Tier-specific factors on migration RT impact and dirty rate.
    tier_rt_factor: Mapping[str, float] = field(
        default_factory=lambda: {"web": 0.8, "app": 1.0, "db": 1.2}
    )
    tier_dirty_factor: Mapping[str, float] = field(
        default_factory=lambda: {"web": 0.8, "app": 1.0, "db": 1.3}
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "tier_rt_factor", dict(self.tier_rt_factor))
        object.__setattr__(
            self, "tier_dirty_factor", dict(self.tier_dirty_factor)
        )


class TransientModel:
    """Samples the true transient footprint of adaptation actions."""

    def __init__(
        self,
        catalog: VmCatalog,
        parameters: Optional[TransientModelParameters] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._catalog = catalog
        self._params = parameters or TransientModelParameters()
        self._rng = rng

    @property
    def parameters(self) -> TransientModelParameters:
        """The hidden true curve parameters."""
        return self._params

    def sample(
        self,
        action: AdaptationAction,
        configuration: Configuration,
        workloads: Mapping[str, float],
        host_specs: Mapping[str, "object"] = (),
    ) -> TransientSpec:
        """Sample one execution's transient footprint.

        ``configuration`` is the state *before* the action; workloads
        are the current per-application request rates.
        """
        spec = self._expected(action, configuration, workloads)
        if self._rng is None or self._params.noise <= 0:
            return spec
        return TransientSpec(
            duration=spec.duration * self._noise_factor(),
            rt_delta={
                app: delta * self._noise_factor()
                for app, delta in spec.rt_delta.items()
            },
            power_delta={
                host: delta * self._noise_factor()
                for host, delta in spec.power_delta.items()
            },
        )

    def expected(
        self,
        action: AdaptationAction,
        configuration: Configuration,
        workloads: Mapping[str, float],
    ) -> TransientSpec:
        """Noise-free footprint (used by tests and analytics)."""
        return self._expected(action, configuration, workloads)

    # -- internals -----------------------------------------------------

    def _noise_factor(self) -> float:
        sigma = float(np.sqrt(np.log(1.0 + self._params.noise**2)))
        return float(np.exp(self._rng.normal(-0.5 * sigma**2, sigma)))

    def _normalized_load(self, workloads: Mapping[str, float], app: str) -> float:
        rate = workloads.get(app, 0.0)
        return min(max(rate / self._params.workload_scale, 0.0), 1.5)

    def _migration_footprint(
        self,
        vm_id: str,
        configuration: Configuration,
        workloads: Mapping[str, float],
        hosts: frozenset[str],
        rt_scale: float = 1.0,
        duration_scale: float = 1.0,
    ) -> TransientSpec:
        params = self._params
        descriptor = self._catalog.get(vm_id)
        load = self._normalized_load(workloads, descriptor.app_name)
        dirty = params.tier_dirty_factor.get(descriptor.tier_name, 1.0)
        duration = duration_scale * (
            descriptor.memory_mb
            * params.transfer_seconds_per_mb
            * (1.0 + params.dirty_page_factor * dirty * load)
        )

        rt_factor = params.tier_rt_factor.get(descriptor.tier_name, 1.0)
        primary_delta = rt_scale * rt_factor * (
            params.migration_rt_base
            + params.migration_rt_peak * load**params.migration_rt_exponent
        )
        rt_delta = {descriptor.app_name: primary_delta}
        for host_id in hosts:
            for other_vm in configuration.vms_on_host(host_id):
                other_app = self._catalog.get(other_vm).app_name
                if other_app != descriptor.app_name:
                    rt_delta.setdefault(
                        other_app,
                        params.colocated_rt_fraction * primary_delta,
                    )

        power_fraction = params.power_delta_base + (
            params.power_delta_peak - params.power_delta_base
        ) * min(load, 1.0)
        power_delta = {
            host_id: power_fraction * params.reference_host_watts
            for host_id in hosts
        }
        return TransientSpec(duration, rt_delta, power_delta)

    def _expected(
        self,
        action: AdaptationAction,
        configuration: Configuration,
        workloads: Mapping[str, float],
    ) -> TransientSpec:
        params = self._params

        if isinstance(action, NullAction):
            return TransientSpec(0.0)

        if isinstance(action, (IncreaseCpu, DecreaseCpu)):
            return TransientSpec(params.cap_change_seconds * action.count)

        if isinstance(action, MigrateVm):
            return self._migration_footprint(
                action.vm_id,
                configuration,
                workloads,
                action.affected_hosts(configuration),
            )

        if isinstance(action, AddReplica):
            vm_id = action._dormant_vm(configuration, self._catalog)
            base = self._migration_footprint(
                vm_id,
                configuration,
                workloads,
                frozenset({action.target_host}),
            )
            load = self._normalized_load(workloads, action.app_name)
            if action.tier_name == "db":
                sync = params.db_sync_base + params.db_sync_per_load * load
            elif action.tier_name == "app":
                sync = params.app_sync_base + params.app_sync_per_load * load
            else:
                sync = 0.0
            return TransientSpec(
                base.duration + sync, base.rt_delta, base.power_delta
            )

        if isinstance(action, RemoveReplica):
            return self._migration_footprint(
                action.vm_id,
                configuration,
                workloads,
                action.affected_hosts(configuration),
                rt_scale=0.6,
                duration_scale=0.9,
            )

        if isinstance(action, PowerOnHost):
            return TransientSpec(90.0, {}, {action.host_id: 80.0})

        if isinstance(action, PowerOffHost):
            return TransientSpec(30.0, {}, {action.host_id: 20.0})

        raise TypeError(f"unknown action type {type(action).__name__}")
