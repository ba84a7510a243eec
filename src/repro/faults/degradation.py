"""Search degradation ladder: normal → pruned → no-op.

Faults cost wall-clock time — retries back off, rollbacks undo work,
re-planning repeats searches — and Mistral's decisions are only useful
if they land within the stability interval the ARMA filter predicted.
When faults pile up, the :class:`DegradationLadder` trades decision
quality for decision latency, one rung at a time:

``normal``
    the controller's configured search (possibly the naive
    full-width A*);
``pruned``
    the Self-Aware pruned search with a reduced expansion budget
    (fast, still adapts);
``noop``
    no search at all — the controller keeps the current configuration
    until the cluster quiets down.

The ladder escalates when ``ESCALATE_AFTER`` faults land within a
sliding ``FAULT_WINDOW_SECONDS`` window, or immediately when a decision
overruns ``DEADLINE_FRACTION`` of its control window.  It recovers one
rung at a time after ``RECOVER_AFTER_SECONDS`` without a fault.

Example::

    >>> ladder = DegradationLadder()
    >>> ladder.level
    'normal'
    >>> [ladder.record_fault(t, "action_failure") for t in (10.0, 20.0, 30.0)]
    [None, None, 'pruned']
    >>> ladder.observe(30.0 + RECOVER_AFTER_SECONDS)
    'normal'
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


#: The rungs, mildest first.
LEVELS: Tuple[str, ...] = ("normal", "pruned", "noop")

#: Sliding window over which faults are counted.
FAULT_WINDOW_SECONDS = 900.0
#: Escalate one rung once this many faults land within the window.
ESCALATE_AFTER = 3
#: Recover one rung after this long without any fault.
RECOVER_AFTER_SECONDS = 1800.0
#: Expansion budget of the ``pruned`` rung's Self-Aware search.
PRUNED_MAX_EXPANSIONS = 250
#: A decision consuming more than this fraction of its control window
#: escalates immediately (deadline overrun).
DEADLINE_FRACTION = 0.5


class DegradationLadder:
    """Tracks the current rung from the fault history."""

    def __init__(self) -> None:
        self._level_index = 0
        self._faults: Deque[float] = deque()
        self._last_fault_time: Optional[float] = None

    @property
    def level(self) -> str:
        """The current rung: ``normal``, ``pruned``, or ``noop``."""
        return LEVELS[self._level_index]

    def record_fault(self, now: float, kind: str) -> Optional[str]:
        """Note one fault at time ``now``; returns the new rung if the
        ladder escalated, else ``None``.  ``kind`` is informational
        (``"action_failure"``, ``"deadline"``, ...); deadline overruns
        escalate unconditionally."""
        self._last_fault_time = now
        if kind == "deadline":
            self._faults.clear()
            return self._escalate()
        self._faults.append(now)
        cutoff = now - FAULT_WINDOW_SECONDS
        while self._faults and self._faults[0] < cutoff:
            self._faults.popleft()
        if len(self._faults) >= ESCALATE_AFTER:
            self._faults.clear()
            return self._escalate()
        return None

    def observe(self, now: float) -> Optional[str]:
        """Advance time; returns the new rung if the ladder recovered
        one level, else ``None``."""
        if self._level_index == 0 or self._last_fault_time is None:
            return None
        if now - self._last_fault_time < RECOVER_AFTER_SECONDS:
            return None
        self._level_index -= 1
        # Recovering further requires another quiet period from now.
        self._last_fault_time = now
        return self.level

    def _escalate(self) -> Optional[str]:
        if self._level_index >= len(LEVELS) - 1:
            return None
        self._level_index += 1
        return self.level
