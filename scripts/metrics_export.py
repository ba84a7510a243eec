#!/usr/bin/env python
"""Export a trace's ``metrics.snapshot`` in Prometheus textfile format.

Usage::

    python scripts/metrics_export.py trace.jsonl
    python scripts/metrics_export.py trace.jsonl --output metrics.prom
    python scripts/metrics_export.py trace.jsonl --prefix mistral

Reads the *last* ``metrics.snapshot`` event of a telemetry JSONL trace
(the run's final counter state) and renders it for the node_exporter
textfile collector:

- counters  -> ``<prefix>_<name> TYPE counter``
- gauges    -> ``<prefix>_<name> TYPE gauge``
- histograms -> cumulative ``_bucket{le=...}`` series plus ``_sum`` /
  ``_count`` (native Prometheus histograms), and the snapshot's
  p50/p90/p99 estimates as ``<prefix>_<name>_quantile`` gauges
- caches    -> ``<prefix>_cache_{hits,misses,evictions,entries}``
  with a ``cache`` label per cache name

Metric names are sanitized (dots to underscores).  With ``--output``
the file is written atomically (temp file + rename) so a scraper never
reads a half-written export.

Reads traces with ``scripts/telemetry_report.py``'s reader: malformed
lines are skipped and counted.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from telemetry_report import SchemaError, read_trace  # noqa: E402

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def read_last_snapshot(path: Path) -> tuple[dict | None, int]:
    """The last ``metrics.snapshot`` payload, plus malformed-line count."""
    records = read_trace(path)
    snapshot = None
    for record in records:
        if (
            record.get("kind") == "event"
            and record.get("name") == "metrics.snapshot"
        ):
            snapshot = record.get("attrs", {}).get("metrics")
    return snapshot, records.malformed_lines


def sanitize(name: str) -> str:
    """A metric name Prometheus accepts: dots/dashes to underscores."""
    cleaned = _NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: float) -> str:
    """Prometheus sample value (repr keeps full float precision)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value))


def render(snapshot: dict, prefix: str) -> str:
    """The whole snapshot as Prometheus exposition text."""
    lines: list[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = f"{prefix}_{sanitize(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = f"{prefix}_{sanitize(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")

    for name, histogram in sorted(snapshot.get("histograms", {}).items()):
        metric = f"{prefix}_{sanitize(name)}"
        bounds = histogram.get("bounds", [])
        counts = histogram.get("counts", [])
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(bounds, counts):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{bound:g}"}} {cumulative}'
            )
        total = histogram.get("count", 0)
        lines.append(f'{metric}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{metric}_sum {_fmt(histogram.get('sum', 0.0))}")
        lines.append(f"{metric}_count {total}")
        for quantile_key, quantile in (
            ("p50", "0.5"),
            ("p90", "0.9"),
            ("p99", "0.99"),
        ):
            if quantile_key in histogram:
                lines.append(
                    f'{metric}_quantile{{quantile="{quantile}"}} '
                    f"{_fmt(histogram[quantile_key])}"
                )

    caches = snapshot.get("caches", {})
    if caches:
        for stat in ("hits", "misses", "evictions", "entries", "instances"):
            metric = f"{prefix}_cache_{stat}"
            kind = "gauge" if stat in ("entries", "instances") else "counter"
            lines.append(f"# TYPE {metric} {kind}")
            for name, stats in sorted(caches.items()):
                lines.append(
                    f'{metric}{{cache="{sanitize(name)}"}} '
                    f"{stats.get(stat, 0)}"
                )

    return "\n".join(lines) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write via temp file + rename so scrapers never see a torn file."""
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=path.parent if str(path.parent) else ".",
        prefix=f".{path.name}.",
        delete=False,
    )
    try:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="telemetry JSONL file")
    parser.add_argument(
        "--output",
        type=Path,
        help="write here (atomically) instead of stdout",
    )
    parser.add_argument(
        "--prefix",
        default="mistral",
        help="metric name prefix (default: mistral)",
    )
    options = parser.parse_args(argv)
    try:
        snapshot, malformed = read_last_snapshot(options.trace)
    except SchemaError as exc:
        print(
            f"error: unsupported trace schema version {exc.version!r} "
            f"in {exc.path}",
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if malformed:
        print(
            f"warning: skipped {malformed} malformed line(s)",
            file=sys.stderr,
        )
    if snapshot is None:
        print(
            f"error: {options.trace} has no metrics.snapshot event "
            "(run with telemetry enabled to completion)",
            file=sys.stderr,
        )
        return 1
    text = render(snapshot, sanitize(options.prefix))
    if options.output is None:
        sys.stdout.write(text)
    else:
        write_atomic(options.output, text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
