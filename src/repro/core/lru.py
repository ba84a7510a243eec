"""A small bounded mapping with least-recently-used eviction.

The optimizers memoize heavily — steady-state estimates, solver
states, per-workload ideal configurations — and used to evict by
wholesale ``dict.clear()`` when a cache filled up, throwing away the
entire working set mid-search and causing periodic latency cliffs.
:class:`LruDict` replaces those with real LRU semantics: a hit moves
the entry to the back of the order, an insert beyond capacity evicts
the least recently touched entry only.

Built on the insertion-order guarantee of the plain ``dict``: moving to
the back is a pop + reinsert, the eviction victim is the first key.

The hit/miss/eviction counters are plain unconditional integer
increments (they predate the telemetry subsystem and cost nothing
measurable).  Passing a ``name`` additionally registers the cache with
``repro.telemetry`` so metric snapshots surface those counters
aggregated per cache name — e.g. ``estimator.steady`` across every
estimator instance in the process.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from repro.telemetry import runtime as _telemetry

K = TypeVar("K")
V = TypeVar("V")

_MISSING = object()


class LruDict(Generic[K, V]):
    """Bounded key-value store evicting the least recently used entry."""

    __slots__ = (
        "_data",
        "_capacity",
        "hits",
        "misses",
        "evictions",
        "name",
        "__weakref__",
    )

    def __init__(self, capacity: int, name: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._data: dict[K, V] = {}
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.name = name
        if name is not None:
            _telemetry.register_cache(name, self)

    @property
    def capacity(self) -> int:
        """Maximum number of entries held."""
        return self._capacity

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Value for ``key`` (refreshing its recency), else ``default``."""
        value = self._data.pop(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data[key] = value  # move to the most-recent end
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Insert or refresh ``key``, evicting the oldest entry if full."""
        if key in self._data:
            del self._data[key]
        elif len(self._data) >= self._capacity:
            del self._data[next(iter(self._data))]
            self.evictions += 1
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[K]:
        """Keys from least to most recently used."""
        return iter(self._data)

    def clear(self) -> None:
        """Drop every entry (the counters keep their totals)."""
        self._data.clear()
