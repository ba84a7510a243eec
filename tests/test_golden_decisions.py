"""Golden decisions: the closed-loop benchmark's three episodes, pinned.

Each case runs one ``perfbench`` workload's episode at testbed seed 0,
through ``run_episode`` in ``perfbench/episode.py`` (loaded read-only,
so the digest keeps the benchmark's definition: every decision's sim
time, controller, actions and predicted utility), and asserts its
decision digest and the episode's cumulative utility by ``float.hex``.
A refactor must leave both unchanged.  A deliberate decision change
updates these constants, with its reason in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: workload -> (decision digest, ``cum_utility.hex()``) at testbed seed 0.
GOLDEN = {
    "loop-apps2": ("e896443f53fd2076", "0x1.ab569f691de88p+2"),
    "loop-apps4": ("cca5e577f20aecfe", "0x1.b4af9940a1cdep+3"),
    "loop-apps2-mcts": ("ffdb35007d2e6735", "0x1.6b986288a7f98p-2"),
}


def _load(monkeypatch, name: str, file_name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / file_name)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_perfbench_episode_decisions_match_golden(monkeypatch, workload):
    # ``perfbench/run.py`` clears every ``MISTRAL_*`` switch before an
    # episode; the strategy switch would otherwise pick the backend.
    for key in [key for key in os.environ if key.startswith("MISTRAL_")]:
        monkeypatch.delenv(key)
    # ``episode.py`` imports its sibling ``workloads`` and puts ``src``
    # on ``sys.path``; both are undone when the test ends.
    monkeypatch.setattr(sys, "path", list(sys.path))
    _load(monkeypatch, "workloads", "workloads.py")
    episode = _load(monkeypatch, "perfbench_episode", "episode.py")

    record = episode.run_episode(workload, testbed_seed=0)

    assert record["error"] is None, record["error"]
    assert (record["digest"], record["cum_utility"].hex()) == GOLDEN[workload]
