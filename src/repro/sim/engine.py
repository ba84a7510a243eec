"""Event-driven simulation engine with a virtual clock.

Time is a float number of seconds since the start of the experiment.
Events are ordered by ``(time, priority, sequence)`` so that ties are
deterministic: lower priority values run first, and events scheduled
earlier run before events scheduled later at the same instant.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.telemetry import runtime as _telemetry


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice...)."""


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by schedule order; the callback itself does not
    participate in the ordering.
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class SimulationEngine:
    """Minimal discrete-event kernel.

    Example
    -------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(5.0, lambda: fired.append(engine.now))
    >>> engine.run_until(10.0)
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[Event] = []
        self._sequence = itertools.count()
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.3f}s before now={self._now:.3f}s"
            )
        event = Event(
            time=float(time),
            priority=priority,
            sequence=next(self._sequence),
            callback=callback,
            label=label,
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` (>= 0) seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(
            self._now + delay, callback, priority=priority, label=label
        )

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        start: Optional[float] = None,
        priority: int = 0,
        label: str = "",
    ) -> Callable[[], None]:
        """Run ``callback`` every ``period`` seconds, starting at ``start``.

        Returns a function that cancels the periodic process.  The first
        invocation happens at ``start`` (default: now + period).
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        state = {"event": None, "stopped": False}

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            if not state["stopped"]:
                state["event"] = self.schedule_after(
                    period, fire, priority=priority, label=label
                )

        first = self._now + period if start is None else start
        state["event"] = self.schedule_at(first, fire, priority=priority, label=label)

        def stop() -> None:
            state["stopped"] = True
            event = state["event"]
            if event is not None:
                event.cancel()

        return stop

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                if _telemetry.enabled:
                    _telemetry.registry.counter("sim.events.cancelled").inc()
                continue
            self._now = event.time
            if _telemetry.enabled:
                _telemetry.registry.counter("sim.events").inc()
                if event.label:
                    # Labels like "finish:increase_cpu(...)" carry the
                    # action instance; group the counter by the prefix
                    # to keep metric cardinality bounded, and put the
                    # full label on the trace event.
                    kind = event.label.split(":", 1)[0]
                    _telemetry.registry.counter(f"sim.events.{kind}").inc()
                    _telemetry.tracer.event(
                        "sim.tick", label=event.label, t_sim=event.time
                    )
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run all events scheduled strictly up to and including ``end_time``.

        The clock is left at ``end_time`` even if the queue drains early.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.3f}s is before now={self._now:.3f}s"
            )
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None or next_time > end_time:
                    break
                self.step()
            self._now = float(end_time)
        finally:
            self._running = False

    def run(self) -> None:
        """Run until the event queue is exhausted."""
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        try:
            while self.step():
                pass
        finally:
            self._running = False
