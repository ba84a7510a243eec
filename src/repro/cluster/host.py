"""Physical hosts and their power state machine."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.power.model import HostPowerModel


class PowerState(enum.Enum):
    """Lifecycle of a physical machine."""

    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    SHUTTING_DOWN = "shutting_down"


@dataclass(frozen=True)
class HostSpec:
    """Static description of one physical machine.

    Defaults follow the paper's testbed: commodity Pentium-4 1.8 GHz
    with 1 GB RAM on 100 Mbps Ethernet; boot takes ~90 s drawing ~80 W,
    shutdown ~30 s drawing ~20 W.
    """

    host_id: str
    cpu_capacity: float = 1.0
    memory_mb: int = 1024
    network_mbps: float = 100.0
    boot_seconds: float = 90.0
    boot_watts: float = 80.0
    shutdown_seconds: float = 30.0
    shutdown_watts: float = 20.0

    def __post_init__(self) -> None:
        if self.cpu_capacity <= 0:
            raise ValueError(f"{self.host_id}: cpu_capacity must be positive")
        if self.memory_mb <= 0:
            raise ValueError(f"{self.host_id}: memory_mb must be positive")


class PhysicalHost:
    """Runtime state of one physical machine."""

    def __init__(
        self,
        spec: HostSpec,
        power_model: HostPowerModel,
        initial_state: PowerState = PowerState.ON,
    ) -> None:
        self.spec = spec
        self.power_model = power_model
        self._state = initial_state

    @property
    def host_id(self) -> str:
        """Identifier of the host."""
        return self.spec.host_id

    @property
    def state(self) -> PowerState:
        """Current power state."""
        return self._state

    def begin_boot(self) -> None:
        """OFF -> BOOTING."""
        if self._state is not PowerState.OFF:
            raise RuntimeError(
                f"host {self.host_id}: cannot boot from {self._state.value}"
            )
        self._state = PowerState.BOOTING

    def complete_boot(self) -> None:
        """BOOTING -> ON."""
        if self._state is not PowerState.BOOTING:
            raise RuntimeError(
                f"host {self.host_id}: complete_boot from {self._state.value}"
            )
        self._state = PowerState.ON

    def begin_shutdown(self) -> None:
        """ON -> SHUTTING_DOWN."""
        if self._state is not PowerState.ON:
            raise RuntimeError(
                f"host {self.host_id}: cannot shut down from {self._state.value}"
            )
        self._state = PowerState.SHUTTING_DOWN

    def complete_shutdown(self) -> None:
        """SHUTTING_DOWN -> OFF."""
        if self._state is not PowerState.SHUTTING_DOWN:
            raise RuntimeError(
                f"host {self.host_id}: complete_shutdown from {self._state.value}"
            )
        self._state = PowerState.OFF

    def abort_boot(self) -> None:
        """BOOTING -> OFF (the boot stalled out and was abandoned)."""
        if self._state is not PowerState.BOOTING:
            raise RuntimeError(
                f"host {self.host_id}: abort_boot from {self._state.value}"
            )
        self._state = PowerState.OFF

    def abort_shutdown(self) -> None:
        """SHUTTING_DOWN -> ON (the shutdown was abandoned)."""
        if self._state is not PowerState.SHUTTING_DOWN:
            raise RuntimeError(
                f"host {self.host_id}: abort_shutdown from {self._state.value}"
            )
        self._state = PowerState.ON

    def crash(self) -> None:
        """Any state -> OFF, immediately (fault injection)."""
        self._state = PowerState.OFF

    def steady_watts(self, utilization: float) -> float:
        """Power draw in the current state at the given CPU utilization.

        Transition surges (boot/shutdown extra draw) are handled as
        transient effects by the cluster, not here.
        """
        if self._state is PowerState.OFF:
            return 0.0
        if self._state is PowerState.BOOTING:
            return self.spec.boot_watts
        if self._state is PowerState.SHUTTING_DOWN:
            return self.spec.shutdown_watts
        return self.power_model.watts(utilization)
