"""Host and system power models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class HostPowerModel:
    """The paper's empirical non-linear host power curve.

    ``pwr(rho) = idle + (busy - idle) * (2*rho - rho**r)`` where
    ``idle`` is standby draw, ``busy`` the maximum observed draw, and
    ``r`` a calibration exponent minimizing the square error against
    meter readings.  ``rho`` is host CPU utilization in [0, 1].
    """

    idle_watts: float = 60.0
    busy_watts: float = 100.0
    exponent: float = 1.4

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ValueError("idle_watts must be >= 0")
        if self.busy_watts < self.idle_watts:
            raise ValueError("busy_watts must be >= idle_watts")
        if not 1.0 <= self.exponent <= 2.0:
            raise ValueError(
                "exponent must be in [1, 2] so pwr(rho) stays within "
                "[idle, busy] and monotone over [0, 1]"
            )

    def watts(self, utilization: float) -> float:
        """Power draw at the given CPU utilization (clamped to [0, 1])."""
        rho = min(max(utilization, 0.0), 1.0)
        dynamic = 2.0 * rho - rho**self.exponent
        return self.idle_watts + (self.busy_watts - self.idle_watts) * dynamic


class SystemPowerModel:
    """Aggregate power of a host fleet.

    Total system power is the sum of the powered hosts' draws (paper:
    "the total power usage of the system is simply the sum of physical
    machines' power usages"); unpowered hosts draw nothing.  Cooling is
    not modeled explicitly, following the paper's argument that it is
    approximately a fixed percentage of compute power.
    """

    def __init__(self, host_models: Mapping[str, HostPowerModel]) -> None:
        if not host_models:
            raise ValueError("SystemPowerModel needs at least one host")
        self._host_models = dict(host_models)

    @classmethod
    def uniform(
        cls, host_ids: Iterable[str], model: HostPowerModel
    ) -> "SystemPowerModel":
        """Fleet where every host follows the same curve."""
        return cls({host_id: model for host_id in host_ids})

    def host_model(self, host_id: str) -> HostPowerModel:
        """Per-host curve; raises ``KeyError`` for unknown hosts."""
        return self._host_models[host_id]

    def host_ids(self) -> tuple[str, ...]:
        """All modeled hosts."""
        return tuple(self._host_models)

    def total_watts(
        self,
        powered_hosts: Iterable[str],
        host_utilizations: Mapping[str, float],
    ) -> float:
        """System draw: powered hosts at their utilization, others 0 W.

        Powered hosts missing from ``host_utilizations`` idle at
        utilization 0.  Draws are added in sorted host order: callers
        pass sets, whose iteration order follows the process's hash
        seed, and float addition is order-sensitive in the last bits.
        """
        total = 0.0
        for host_id in sorted(powered_hosts):
            model = self._host_models.get(host_id)
            if model is None:
                raise KeyError(f"unknown host {host_id!r}")
            total += model.watts(host_utilizations.get(host_id, 0.0))
        return total
