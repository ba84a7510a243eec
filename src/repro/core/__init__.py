"""Mistral's core: configurations, utility, optimizers, and controllers.

This package holds the paper's primary contribution:

- :mod:`repro.core.config` — immutable system configurations (VM
  placement + CPU caps + powered hosts) and their feasibility rules.
- :mod:`repro.core.actions` — the six adaptation actions.
- :mod:`repro.core.utility` — the utility model of Eqs. 1-3 and the
  Fig. 3 reward/penalty functions.
- :mod:`repro.core.perf_pwr` — the Perf-Pwr optimizer (bin packing +
  gradient search) whose output is both a baseline and the admissible
  A* heuristic ("ideal utility").
- :mod:`repro.core.search` — the Naive and Self-Aware A* optimizers
  (Algorithm 1).
- :mod:`repro.core.controller` — the Mistral controller proper.
- :mod:`repro.core.hierarchy` — the multi-level controller hierarchy.

Attributes are resolved lazily (PEP 562) so that substrate packages can
import :mod:`repro.core.config` without dragging in the controller
stack — which itself depends on those substrates.
"""

from __future__ import annotations

_EXPORTS = {
    "AdaptationAction": "repro.core.actions",
    "AddReplica": "repro.core.actions",
    "DecreaseCpu": "repro.core.actions",
    "IncreaseCpu": "repro.core.actions",
    "MigrateVm": "repro.core.actions",
    "NullAction": "repro.core.actions",
    "PowerOffHost": "repro.core.actions",
    "PowerOnHost": "repro.core.actions",
    "RemoveReplica": "repro.core.actions",
    "ConstraintLimits": "repro.core.config",
    "Configuration": "repro.core.config",
    "Placement": "repro.core.config",
    "VmCatalog": "repro.core.config",
    "VmDescriptor": "repro.core.config",
    "MistralController": "repro.core.controller",
    "ControllerHierarchy": "repro.core.hierarchy",
    "PerfPwrOptimizer": "repro.core.perf_pwr",
    "PerfPwrResult": "repro.core.perf_pwr",
    "AdaptationSearch": "repro.core.search",
    "SearchOutcome": "repro.core.search",
    "SearchSettings": "repro.core.search",
    "UtilityModel": "repro.core.utility",
    "UtilityParameters": "repro.core.utility",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, name)


def __dir__():
    return __all__
