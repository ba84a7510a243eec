"""The seeded fault injector.

One :class:`FaultInjector` owns its own random generator, seeded from
:attr:`FaultConfig.seed` and independent of every simulation stream —
attaching an injector to a run never changes the draws the testbed's
own noise models consume, and two runs with the same fault seed inject
the exact same fault schedule.

Two fault surfaces:

- **action failures** — each action execution attempt may *fail*
  (abandoned mid-flight, the configuration change never lands), with
  one probability for every action family, plus a scripted list for
  deterministic scenarios ("fail the first two migrations");
- **host crashes** — scripted ``(time, host_id)`` events; the cluster
  strands the VMs placed there and aborts any in-flight plan.

The action surface consumes no randomness while ``fail_probability``
is zero.

Example — a config that fails the first two migration attempts and
crashes one host, with no random faults at all::

    >>> from types import SimpleNamespace
    >>> injector = FaultInjector(
    ...     FaultConfig(
    ...         seed=7,
    ...         scripted=(
    ...             ScriptedActionFault(kind="migrate", occurrence=0),
    ...             ScriptedActionFault(kind="migrate", occurrence=1),
    ...         ),
    ...         host_crashes=(HostCrash(time=7200.0, host_id="host-3"),),
    ...     )
    ... )
    >>> migrate = SimpleNamespace(kind="migrate")
    >>> [injector.action_fails(migrate) for _ in range(3)]
    [True, True, False]
    >>> injector.stats.action_failures
    2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """Deterministically fail the Nth execution attempt of one family.

    ``occurrence`` counts *attempts* of the action family across the
    whole run, starting at 0 — scripting occurrences 0 and 1 of
    ``"migrate"`` fails the first migration twice (its first try and
    its first retry).
    """

    kind: str
    occurrence: int

    def __post_init__(self) -> None:
        if self.occurrence < 0:
            raise ValueError("occurrence must be >= 0")


@dataclass
class FaultStats:
    """Counts of every fault the injector actually injected."""

    action_failures: int = 0
    host_crashes: int = 0

    def total(self) -> int:
        """All injected faults."""
        return self.action_failures + self.host_crashes


@dataclass(frozen=True)
class FaultConfig:
    """Everything the injector may do, defaulted off.

    A default-constructed config injects nothing, and while
    ``fail_probability`` is zero the injector consumes no randomness.
    """

    #: Seed of the injector's private random generator.
    seed: int = 0
    #: Failure probability of every execution attempt, in every action
    #: family.
    fail_probability: float = 0.0
    #: Deterministic per-occurrence failures, checked before the dice.
    scripted: tuple[ScriptedActionFault, ...] = ()
    #: Scripted host crashes.
    host_crashes: tuple[HostCrash, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scripted", tuple(self.scripted))
        object.__setattr__(self, "host_crashes", tuple(self.host_crashes))
        if not 0.0 <= self.fail_probability <= 1.0:
            raise ValueError(
                "fail_probability must be in [0, 1], "
                f"got {self.fail_probability!r}"
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

    def action_fails(self, action) -> bool:
        """Whether one execution attempt of ``action`` fails.

        A scripted occurrence fails without a draw.  Any other attempt
        consumes one draw only while ``fail_probability`` is non-zero,
        so an inert config leaves the generator untouched.
        """
        kind = action.kind
        index = self._occurrences.get(kind, 0)
        self._occurrences[kind] = index + 1
        scripted = any(
            fault.kind == kind and fault.occurrence == index
            for fault in self.config.scripted
        )
        if not scripted:
            probability = self.config.fail_probability
            if probability <= 0.0 or float(self._rng.random()) >= probability:
                return False
        self.stats.action_failures += 1
        return True

    def note_host_crash(self) -> None:
        """Count one executed host crash (called by the cluster)."""
        self.stats.host_crashes += 1
