"""The seeded fault injector.

One :class:`FaultInjector` owns its own random generator, seeded from
:attr:`FaultConfig.seed` and independent of every simulation stream —
attaching an injector to a run never changes the draws the testbed's
own noise models consume, and two runs with the same fault seed inject
the exact same fault schedule.

Two fault surfaces:

- **action faults** — each action execution attempt may *fail*
  (abandoned mid-flight after ``fail_fraction`` of its duration, the
  configuration change never lands) or *stall* (its duration is
  multiplied by ``stall_factor``, which may push it past the recovery
  policy's timeout).  Probabilities are per action family, plus a
  scripted list for deterministic scenarios ("fail the first two
  migrations");
- **host crashes** — scripted ``(time, host_id)`` events; the cluster
  strands the VMs placed there and aborts any in-flight plan.

The action surface consumes no randomness while its knobs are zero.

Example — a config that fails the first two migration attempts and
crashes one host, with no random faults at all::

    >>> config = FaultConfig(
    ...     seed=7,
    ...     scripted=(
    ...         ScriptedActionFault(kind="migrate", occurrence=0),
    ...         ScriptedActionFault(kind="migrate", occurrence=1),
    ...     ),
    ...     host_crashes=(HostCrash(time=7200.0, host_id="host-3"),),
    ... )
    >>> config.is_inert()
    False
    >>> FaultConfig().is_inert()
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np


@dataclass(frozen=True)
class HostCrash:
    """One scripted host crash: ``host_id`` dies at simulation ``time``."""

    time: float
    host_id: str

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be >= 0")


@dataclass(frozen=True)
class ScriptedActionFault:
    """Deterministically fault the Nth execution attempt of one family.

    ``occurrence`` counts *attempts* of the action family across the
    whole run, starting at 0 — scripting occurrences 0 and 1 of
    ``"migrate"`` fails the first migration twice (its first try and
    its first retry).
    """

    kind: str
    occurrence: int
    mode: str = "fail"

    def __post_init__(self) -> None:
        if self.occurrence < 0:
            raise ValueError("occurrence must be >= 0")
        if self.mode not in ("fail", "stall"):
            raise ValueError(f"unknown fault mode {self.mode!r}")


@dataclass(frozen=True)
class ActionFault:
    """The injector's verdict for one action execution attempt."""

    mode: str  # "fail" | "stall"
    stall_factor: float = 1.0


@dataclass
class FaultStats:
    """Counts of every fault the injector actually injected."""

    action_failures: int = 0
    action_stalls: int = 0
    host_crashes: int = 0

    def total(self) -> int:
        """All injected faults."""
        return self.action_failures + self.action_stalls + self.host_crashes


@dataclass(frozen=True)
class FaultConfig:
    """Everything the injector may do, with every knob defaulted off.

    A default-constructed config injects nothing (:meth:`is_inert`),
    and an action family with every probability at zero consumes no
    randomness.
    """

    #: Seed of the injector's private random generator.
    seed: int = 0
    #: Fallback per-attempt failure probability for action families not
    #: listed in ``action_fail_probability``.
    default_fail_probability: float = 0.0
    #: Fallback per-attempt stall probability.
    default_stall_probability: float = 0.0
    #: Per action family (``"migrate"``, ``"add_replica"``, ...)
    #: failure probability per execution attempt.
    action_fail_probability: Mapping[str, float] = field(default_factory=dict)
    #: Per action family stall probability per execution attempt.
    action_stall_probability: Mapping[str, float] = field(default_factory=dict)
    #: Duration multiplier applied to stalled actions.
    stall_factor: float = 4.0
    #: Fraction of the (possibly stalled) duration after which a failed
    #: action surfaces its failure; its transient RT/power footprint
    #: applies over that window even though no configuration change
    #: lands.
    fail_fraction: float = 0.5
    #: Deterministic per-occurrence faults, checked before the dice.
    scripted: tuple[ScriptedActionFault, ...] = ()
    #: Scripted host crashes.
    host_crashes: tuple[HostCrash, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "action_fail_probability", dict(self.action_fail_probability)
        )
        object.__setattr__(
            self,
            "action_stall_probability",
            dict(self.action_stall_probability),
        )
        object.__setattr__(self, "scripted", tuple(self.scripted))
        object.__setattr__(self, "host_crashes", tuple(self.host_crashes))
        for name in ("default_fail_probability", "default_stall_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for mapping in (
            self.action_fail_probability,
            self.action_stall_probability,
        ):
            for kind, value in mapping.items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"probability for {kind!r} must be in [0, 1]"
                    )
        if self.stall_factor < 1.0:
            raise ValueError("stall_factor must be >= 1")
        if not 0.0 < self.fail_fraction <= 1.0:
            raise ValueError("fail_fraction must be in (0, 1]")

    def fail_probability(self, kind: str) -> float:
        """Failure probability for one action family."""
        return self.action_fail_probability.get(
            kind, self.default_fail_probability
        )

    def stall_probability(self, kind: str) -> float:
        """Stall probability for one action family."""
        return self.action_stall_probability.get(
            kind, self.default_stall_probability
        )

    def is_inert(self) -> bool:
        """Whether this config can never inject anything."""
        return (
            self.default_fail_probability == 0.0
            and self.default_stall_probability == 0.0
            and not any(self.action_fail_probability.values())
            and not any(self.action_stall_probability.values())
            and not self.scripted
            and not self.host_crashes
        )


class FaultInjector:
    """Draws deterministic fault verdicts from one seeded generator."""

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()
        self._rng = np.random.default_rng(self.config.seed)
        #: Execution attempts seen so far, per action family (the index
        #: :class:`ScriptedActionFault` occurrences refer to).
        self._occurrences: dict[str, int] = {}
        self.stats = FaultStats()

    # -- action faults ---------------------------------------------------

    def action_fault(self, action) -> Optional[ActionFault]:
        """Verdict for one execution attempt of ``action``.

        Consumes one random draw only when the action's family has a
        non-zero fault probability, so an inert config (or a family
        with every knob at zero) leaves the generator untouched.
        """
        kind = action.kind
        index = self._occurrences.get(kind, 0)
        self._occurrences[kind] = index + 1

        for scripted in self.config.scripted:
            if scripted.kind == kind and scripted.occurrence == index:
                return self._record(
                    ActionFault(scripted.mode, self.config.stall_factor)
                )

        fail = self.config.fail_probability(kind)
        stall = self.config.stall_probability(kind)
        if fail <= 0.0 and stall <= 0.0:
            return None
        draw = float(self._rng.random())
        if draw < fail:
            return self._record(ActionFault("fail"))
        if draw < fail + stall:
            return self._record(ActionFault("stall", self.config.stall_factor))
        return None

    def _record(self, fault: ActionFault) -> ActionFault:
        if fault.mode == "fail":
            self.stats.action_failures += 1
        else:
            self.stats.action_stalls += 1
        return fault

    # -- host crashes ----------------------------------------------------

    def note_host_crash(self) -> None:
        """Count one executed host crash (called by the cluster)."""
        self.stats.host_crashes += 1
