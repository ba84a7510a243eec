"""Span recorder and layer map for the traced closed-loop run.

The traced run wraps the public entry points of every layer of the
control window from the outside: class methods are replaced on their
class, ``plan_transition`` at each module that imported it.  Nothing
under ``src/`` is edited, and the wrappers only read the clock, so the
decisions of a traced run are bit-identical to an untraced one (the
benchmark checks this through the decision digest).

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out when the run ends.  A span's self time is its duration
minus the durations of its direct children; the loop is
single-threaded, so children never overlap and their durations sum to
the part of the parent they cover.  The root span wraps
``Testbed.run``; its self time is the explicit unattributed remainder,
and the self times of all spans add up to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Layer of the root span; its self time is the unattributed remainder.
ROOT = "root"

#: Layers in ledger order, each named after its module.
LAYERS = (
    "search",
    "rounds",
    "perf_pwr",
    "estimator",
    "solver",
    "costmodel",
    "planner",
    "workload",
    "feedback",
    "cluster",
    "sim",
    "testbed",
    "controller",
)

#: Public entry points wrapped per layer: ``(layer, module, class,
#: methods)``.  Methods a subclass inherits are wrapped once, on the
#: class that defines them.
CLASS_ENTRY_POINTS = (
    ("root", "repro.testbed.testbed", "Testbed", ("run",)),
    ("search", "repro.core.search", "AdaptationSearch", ("search",)),
    (
        "rounds",
        "repro.core.rounds",
        "ArrayBasis",
        (
            "round_values",
            "distances",
            "sel_reductions",
            "parent_rows",
            "candidacy",
            "child_keys",
        ),
    ),
    ("perf_pwr", "repro.core.perf_pwr", "PerfPwrOptimizer", ("optimize",)),
    (
        "estimator",
        "repro.core.estimator",
        "UtilityEstimator",
        (
            "estimate",
            "prime",
            "estimate_batch",
            "estimate_child",
            "transient_rates",
        ),
    ),
    (
        "solver",
        "repro.perfmodel.solver",
        "LqnSolver",
        ("solve", "solve_state", "update_state", "solve_batch"),
    ),
    ("costmodel", "repro.costmodel.manager", "CostManager", ("predict",)),
    (
        "workload",
        "repro.workload.monitor",
        "WorkloadMonitor",
        ("observe", "force_escape"),
    ),
    (
        "workload",
        "repro.workload.arma",
        "StabilityIntervalEstimator",
        ("observe",),
    ),
    ("feedback", "repro.core.feedback", "ModelFeedback", ("observe",)),
    (
        "cluster",
        "repro.cluster.cluster",
        "Cluster",
        (
            "deploy",
            "execute_plan",
            "transient_rt_delta_mean",
            "transient_power_delta_mean",
        ),
    ),
    ("sim", "repro.sim.engine", "SimulationEngine", ("step",)),
    ("testbed", "repro.cluster.power_meter", "PowerMeter", ("read_windowed",)),
    ("testbed", "repro.core.utility", "UtilityModel", ("interval_utility",)),
    (
        "controller",
        "repro.core.controller",
        "MistralController",
        ("on_sample", "record_interval_utility", "record_measurements"),
    ),
    (
        "controller",
        "repro.core.hierarchy",
        "ControllerHierarchy",
        ("on_sample", "record_interval_utility", "record_measurements"),
    ),
)

#: Solver methods by the ``solver.*`` metric family they feed.
SOLVER_FAMILIES = {
    "solve": "full",
    "solve_state": "full",
    "update_state": "delta",
    "solve_batch": "batch",
}


class SpanRecorder:
    """Flat, append-only span arrays plus a few event counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def save(self, path) -> None:
        """Write the spans as a compressed ``.npz`` archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _traced(
    function: Callable,
    recorder: SpanRecorder,
    name: str,
    on_result: Optional[Callable[[tuple, object], None]] = None,
) -> Callable:
    """``function`` wrapped in a span called ``name``."""
    span_name = recorder.name_index(name)
    name_id = recorder.name_id
    parent = recorder.parent
    start = recorder.start
    end = recorder.end
    stack = recorder.stack
    clock = time.perf_counter

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = len(start)
        name_id.append(span_name)
        parent.append(stack[-1])
        end.append(0.0)
        stack.append(index)
        start.append(clock())
        try:
            result = function(*args, **kwargs)
        finally:
            end[index] = clock()
            stack.pop()
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


class LayerTracer:
    """Installs span wrappers on the layer entry points of one testbed.

    ``truth_solver`` is the testbed's hidden-truth solver: its solves
    are the testbed's accounting, not the model solver the controllers
    plan with, so they are filed under ``testbed``.
    """

    def __init__(self, recorder: SpanRecorder, truth_solver) -> None:
        self.recorder = recorder
        self.truth_solver = truth_solver
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _hook(self, class_name: str, method: str):
        """Counter hook for the entry points that feed a count metric."""
        count = self.recorder.count
        if (class_name, method) == ("LqnSolver", "solve_batch"):
            return lambda args, result: count("solver.batch_configs", len(result))
        if (class_name, method) == ("WorkloadMonitor", "observe"):
            return lambda args, result: (
                count("workload.escapes") if result is not None else None
            )
        if (class_name, method) == ("WorkloadMonitor", "force_escape"):
            return lambda args, result: count("workload.escapes")
        if (class_name, method) == ("Cluster", "execute_plan"):
            return lambda args, result: count("cluster.actions", len(args[1]))
        if (class_name, method) == ("SimulationEngine", "step"):
            return lambda args, result: count("sim.events") if result else None
        return None

    def install(self) -> None:
        for layer, module_name, class_name, methods in CLASS_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                hook = self._hook(class_name, method)
                traced = _traced(
                    original, self.recorder, f"{layer}:{class_name}.{method}", hook
                )
                if layer == "solver":
                    traced = self._route_truth(original, traced, class_name, method, hook)
                self._patch(cls, method, traced)
        self._patch_plan_transition()
        self._patch_sample_callback()

    def _route_truth(self, original, traced, class_name, method, hook):
        """Send the truth solver's calls to a ``testbed`` span instead."""
        truth_traced = _traced(
            original, self.recorder, f"testbed:{class_name}.{method}", hook
        )
        truth_solver = self.truth_solver

        @functools.wraps(original)
        def route(solver, *args, **kwargs):
            chosen = truth_traced if solver is truth_solver else traced
            return chosen(solver, *args, **kwargs)

        return route

    def _patch_plan_transition(self) -> None:
        """``plan_transition`` is a function: wrap it at every module
        that imported it by name, as well as where it is defined."""
        planner = importlib.import_module("repro.core.planner")
        original = planner.plan_transition
        wrapped = _traced(original, self.recorder, "planner:plan_transition")
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro."):
                continue
            if getattr(module, "plan_transition", None) is original:
                self._patch(module, "plan_transition", wrapped)

    def _patch_sample_callback(self) -> None:
        """File the testbed's periodic monitoring callback (truth solve,
        measurement noise, the referee) under ``testbed``."""
        engine_cls = importlib.import_module("repro.sim.engine").SimulationEngine
        original = engine_cls.__dict__["schedule_periodic"]
        recorder = self.recorder

        @functools.wraps(original)
        def schedule_periodic(engine, period, callback, **kwargs):
            traced = _traced(callback, recorder, "testbed:sample")
            return original(engine, period, traced, **kwargs)

        self._patch(engine_cls, "schedule_periodic", schedule_periodic)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


@dataclass
class Ledger:
    """Self time per span name and per layer, from one recorder."""

    loop_s: float
    span_calls: dict[str, int]
    span_self_s: dict[str, float]
    #: Self time by owner group: every span belongs to its nearest
    #: ``perf_pwr`` or ``search`` ancestor (itself included), or to
    #: ``other`` when it has neither.
    owner_self_s: dict[str, float]

    def layer_calls(self, layer: str) -> int:
        return sum(
            calls
            for name, calls in self.span_calls.items()
            if name.split(":", 1)[0] == layer
        )

    def layer_self_s(self, layer: str) -> float:
        return sum(
            seconds
            for name, seconds in self.span_self_s.items()
            if name.split(":", 1)[0] == layer
        )

    @property
    def unattributed_s(self) -> float:
        return self.layer_self_s(ROOT)

    @property
    def attributed_s(self) -> float:
        return sum(self.layer_self_s(layer) for layer in LAYERS)


def ledger_of(recorder: SpanRecorder) -> Ledger:
    """Aggregate a finished recorder into self times.

    Raises ``ValueError`` when the spans are not a single closed tree
    under one ``Testbed.run`` root.
    """
    if len(recorder.stack) != 1:
        raise ValueError("spans still open after the run")
    names = np.array(recorder.names)
    name_id = np.frombuffer(recorder.name_id, dtype=np.int32)
    parent = np.frombuffer(recorder.parent, dtype=np.int32)
    duration = np.frombuffer(recorder.end, dtype=np.float64) - np.frombuffer(
        recorder.start, dtype=np.float64
    )
    layer_of_name = np.array([name.split(":", 1)[0] for name in names])
    layer = layer_of_name[name_id]
    roots = np.flatnonzero(parent < 0)
    if len(roots) != 1 or layer[roots[0]] != ROOT:
        raise ValueError(
            f"expected one Testbed.run root span, found {len(roots)} top-level spans"
        )
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(parent)
    )
    self_s = duration - covered

    # Owner group; parents always precede their children in the arrays.
    owner_names = ("other", "perf_pwr", "search")
    owner_of_layer = {"perf_pwr": 1, "search": 2}
    parents = parent.tolist()
    owner = [0] * len(parents)
    for index, span_layer in enumerate(layer.tolist()):
        up = parents[index]
        owner[index] = owner_of_layer.get(span_layer, owner[up] if up >= 0 else 0)

    calls = np.bincount(name_id, minlength=len(names))
    self_by_name = np.bincount(name_id, weights=self_s, minlength=len(names))
    self_by_owner = np.bincount(np.array(owner), weights=self_s, minlength=3)
    return Ledger(
        loop_s=float(duration[roots[0]]),
        span_calls={name: int(calls[i]) for i, name in enumerate(names)},
        span_self_s={
            name: float(self_by_name[i]) for i, name in enumerate(names)
        },
        owner_self_s={
            group: float(self_by_owner[i]) for i, group in enumerate(owner_names)
        },
    )
