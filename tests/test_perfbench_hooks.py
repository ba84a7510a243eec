"""The traced closed-loop benchmark finds its hooks by name.

``perfbench/tracing.py`` wraps each layer's entry points by looking
them up as ``cls.__dict__[name]`` (and ``plan_transition`` and
``SimulationEngine.schedule_periodic`` the same way), so renaming or
deleting one breaks every ``perfbench/run.py --trace 1`` run.  This
keeps the names checked in the tier-1 suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Dataclass creation looks its module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_are_defined_on_their_classes(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.CLASS_ENTRY_POINTS
    missing = []
    for _layer, module_name, class_name, methods in tracing.CLASS_ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        missing.extend(
            f"{module_name}.{class_name}.{method}"
            for method in methods
            if method not in cls.__dict__
        )
    assert not missing
    engine = importlib.import_module("repro.sim.engine").SimulationEngine
    assert "schedule_periodic" in engine.__dict__
    assert callable(importlib.import_module("repro.core.planner").plan_transition)
