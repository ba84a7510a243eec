"""Span-based structured tracing with pluggable JSONL sinks.

A trace is a flat stream of JSON-encodable event dicts.  Every event
carries the telemetry schema version so readers can refuse traces they
do not understand (``scripts/telemetry_report.py`` does exactly that).

Event shape (schema version 1)::

    {"v": 1, "kind": "span",  "name": "controller.decision",
     "seq": 7, "parent": 3, "depth": 1, "t": 0.0123, "dur": 0.0009,
     "attrs": {...}}
    {"v": 1, "kind": "event", "name": "sim.tick", "seq": 8,
     "parent": 3, "depth": 1, "t": 0.0141, "attrs": {...}}
    {"v": 1, "kind": "meta",  "schema": 1, "attrs": {...}}

``t`` is seconds on a *monotonic* clock relative to the tracer's epoch
(its creation or last ``reset``); ``dur`` is the span's wall duration
on the same clock.  ``seq`` numbers events in emission order;
``parent`` is the ``seq`` of the enclosing open span (or ``None`` at
the top level) and ``depth`` the nesting level.  Spans are emitted
when they *close*, so a child span appears in the stream before its
parent — readers reconstruct nesting from ``parent``/``depth``, not
from file order.

Sinks receive finished event dicts:

- :class:`NullSink` — drops everything (metrics-only telemetry);
- :class:`RingBufferSink` — keeps the most recent N events in memory
  (tests, interactive inspection);
- :class:`JsonlFileSink` — appends one JSON object per line to a file,
  starting with a ``meta`` header line.

The tracer keeps one open-span stack *per thread*: spans opened on
another thread nest under that thread's own spans, never under the
main thread's, while ``seq`` stays globally ordered across threads.
Sinks serialize their writes, so interleaved emissions from several
threads produce valid JSONL.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import IO, Optional, Union

#: Version of the event schema above.  Bump on any breaking change to
#: event fields; readers reject versions they do not know.
SCHEMA_VERSION = 1


class NullSink:
    """Discards every event."""

    def emit(self, event: dict) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._buffer: deque[dict] = deque(maxlen=capacity)

    def emit(self, event: dict) -> None:
        self._buffer.append(event)

    def events(self) -> list[dict]:
        """All retained events, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlFileSink:
    """Appends events as JSON lines to ``path``.

    The first line written is a ``meta`` header carrying the schema
    version, so even an empty trace identifies itself.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self._path = str(path)
        self._lock = threading.Lock()
        self._file: Optional[IO[str]] = open(self._path, "w", encoding="utf-8")
        self.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "meta",
                "schema": SCHEMA_VERSION,
                "attrs": {"writer": "repro.telemetry", "path": self._path},
            }
        )

    @property
    def path(self) -> str:
        """Where the trace is being written."""
        return self._path

    def emit(self, event: dict) -> None:
        # Serialize under the lock so events emitted from concurrent
        # threads land as whole lines.
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._file is None:
                raise ValueError(f"sink for {self._path!r} is closed")
            self._file.write(line)

    def flush(self) -> None:
        """Push buffered lines to the OS (teardown safety: a run that
        dies mid-window still leaves a complete trace on disk)."""
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class Span:
    """One open span; use via ``Tracer.span`` as a context manager.

    Attributes set during the span (``span["key"] = value`` or
    ``span.set(key, value)``) land in the emitted event's ``attrs``.
    """

    __slots__ = ("name", "attrs", "_tracer", "_start", "seq", "parent", "depth")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: dict,
        seq: int,
        parent: Optional[int],
        depth: int,
        start: float,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.seq = seq
        self.parent = parent
        self.depth = depth
        self._start = start

    def set(self, *args, **attrs) -> None:
        """Attach attributes: ``set(key, value)`` or ``set(k=v, ...)``."""
        if args:
            key, value = args
            self.attrs[key] = value
        self.attrs.update(attrs)

    def __setitem__(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close_span(self)


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, *args, **attrs) -> None:
        pass

    def __setitem__(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Emits nested spans and point events to one sink."""

    def __init__(self, sink: Optional[object] = None) -> None:
        self._sink = sink if sink is not None else NullSink()
        self._epoch = time.perf_counter()
        # ``next()`` on an iterator is atomic under the GIL, so seq
        # numbers stay unique and globally ordered without a lock.
        self._seq = itertools.count()
        self._local = threading.local()

    @property
    def sink(self):
        """The sink receiving this tracer's events."""
        return self._sink

    def set_sink(self, sink) -> None:
        """Swap the sink (closing the old one)."""
        self._sink.close()
        self._sink = sink

    def reset(self) -> None:
        """Restart the epoch, sequence numbers, and this thread's
        open-span stack (call between runs, not mid-trace: other
        threads' stacks reset lazily when they next touch the tracer
        after their spans close)."""
        self._epoch = time.perf_counter()
        self._seq = itertools.count()
        self._stack().clear()

    # -- emission ----------------------------------------------------------

    def _stack(self) -> list:
        """The calling thread's open-span stack (created on demand)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_seq(self) -> int:
        return next(self._seq)

    def span(self, name: str, **attrs) -> Span:
        """Open a span; closing it (context-manager exit) emits it."""
        stack = self._stack()
        span = Span(
            self,
            name,
            attrs,
            seq=self._next_seq(),
            parent=stack[-1].seq if stack else None,
            depth=len(stack),
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        end = time.perf_counter()
        stack = self._stack()
        # Tolerate mispaired exits (an inner span leaked open): close
        # everything above the exiting span as well.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        self._sink.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "span",
                "name": span.name,
                "seq": span.seq,
                "parent": span.parent,
                "depth": span.depth,
                "t": span._start - self._epoch,
                "dur": end - span._start,
                "attrs": span.attrs,
            }
        )

    def event(self, name: str, **attrs) -> None:
        """Emit one instantaneous event at the current nesting level."""
        stack = self._stack()
        self._sink.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "event",
                "name": name,
                "seq": self._next_seq(),
                "parent": stack[-1].seq if stack else None,
                "depth": len(stack),
                "t": time.perf_counter() - self._epoch,
                "attrs": attrs,
            }
        )
