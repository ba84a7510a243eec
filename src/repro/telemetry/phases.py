"""Phase-attributed wall/CPU profiling for the adaptation search.

One search spends its time in a handful of distinguishable phases —
enumerating actions, scoring rounds (the pruned rounds' distance
ranking and the cost predictions of a round's memo misses), merging
scored children into vertices, and
frontier bookkeeping (push/pop on the open set).  A
:class:`PhaseProfile` accumulates wall and CPU seconds per phase; the
search emits the totals as one ``profile.phases`` event per run (see
``docs/TRACE_SCHEMA.md``).

The active profile is **thread-local**: ``AdaptationSearch.search``
installs one for its own thread when telemetry is enabled, and the
instrumented callees (the round steps in ``core/rounds``) attribute
into whatever profile their calling thread carries, so nothing is
double counted.  With telemetry disabled no
profile is ever installed and every instrumentation site costs one
thread-local read and a ``None`` check — the same contract as
``runtime.enabled``.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

#: Canonical phase names, in reporting order.  Profiles may carry other
#: names (callees are free to attribute new phases), but the toolkit
#: sorts these first.
PHASES = ("enumerate", "score", "merge", "frontier")

_tls = threading.local()


class PhaseProfile:
    """Per-phase wall/CPU accumulators for one search run.

    Additions are tiny and per-round (not per-child), so a plain lock
    keeps concurrent attributions from several threads safe
    without measurable cost.
    """

    __slots__ = ("_lock", "_acc")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> [wall_seconds, cpu_seconds, calls]
        self._acc: dict[str, list] = {}

    def add(self, name: str, wall: float, cpu: float) -> None:
        """Attribute one timed region to ``name``."""
        with self._lock:
            entry = self._acc.get(name)
            if entry is None:
                self._acc[name] = [wall, cpu, 1]
            else:
                entry[0] += wall
                entry[1] += cpu
                entry[2] += 1

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{phase: {"wall": s, "cpu": s, "calls": n}}``, canonical
        phases first, extras in insertion order."""
        with self._lock:
            items = dict(self._acc)
        ordered = [name for name in PHASES if name in items]
        ordered += [name for name in items if name not in PHASES]
        return {
            name: {
                "wall": items[name][0],
                "cpu": items[name][1],
                "calls": items[name][2],
            }
            for name in ordered
        }

    def __bool__(self) -> bool:
        return bool(self._acc)


def set_profile(profile: Optional[PhaseProfile]) -> None:
    """Install (or clear, with ``None``) this thread's active profile."""
    _tls.profile = profile


def get_profile() -> Optional[PhaseProfile]:
    """This thread's active profile, or ``None`` when not profiling."""
    return getattr(_tls, "profile", None)


class _Timed:
    """Context manager timing one region into the active profile.

    Resolves the profile at ``__enter__`` so a region spanning a
    profile swap attributes to the profile that was active when it
    started.  A no-op (two attribute reads) when no profile is active.
    """

    __slots__ = ("_name", "_profile", "_wall", "_cpu")

    def __init__(self, name: str) -> None:
        self._name = name
        self._profile = None

    def __enter__(self) -> "_Timed":
        profile = get_profile()
        self._profile = profile
        if profile is not None:
            self._wall = time.perf_counter()
            self._cpu = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        profile = self._profile
        if profile is not None:
            profile.add(
                self._name,
                time.perf_counter() - self._wall,
                time.process_time() - self._cpu,
            )


def phase(name: str) -> _Timed:
    """Time a ``with`` block into the active profile (no-op without one)."""
    return _Timed(name)
