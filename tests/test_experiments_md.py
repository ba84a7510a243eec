"""``scripts/build_experiments_md.py`` keeps what EXPERIMENTS.md records.

A rebuild after running only some of the benchmarks must take each
section's block from ``results/`` when there is one, keep the block the
current file records when there is not, and mark a section absent from
both as unrecorded.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = (
    Path(__file__).resolve().parents[1] / "scripts" / "build_experiments_md.py"
)


def _load_builder():
    spec = importlib.util.spec_from_file_location("build_experiments_md", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _section(text: str, title: str) -> str:
    """The body of the ``## title`` section of a built file."""
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_rebuild_keeps_recorded_blocks_missing_from_results(tmp_path):
    builder = _load_builder()
    (first, second, _), titles = zip(
        *((name, title) for name, title, _ in builder.SECTIONS[:3])
    )
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    (earlier / f"{first}.txt").write_text("old first block\n")
    (earlier / f"{second}.txt").write_text("kept second block\n")
    (earlier / "new_benchmark.txt").write_text("kept extra block\n")
    current = builder.build(earlier, "")

    results = tmp_path / "results"
    results.mkdir()
    (results / f"{first}.txt").write_text("fresh first block\n")
    rebuilt = builder.build(results, current)

    assert "```\nfresh first block\n```" in _section(rebuilt, titles[0])
    assert "old first block" not in rebuilt
    assert "```\nkept second block\n```" in _section(rebuilt, titles[1])
    assert "(no recorded block" in _section(rebuilt, titles[2])
    assert "### new_benchmark\n\n```\nkept extra block\n```" in rebuilt
    assert builder.build(tmp_path / "none", rebuilt) == rebuilt
