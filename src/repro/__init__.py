"""Reproduction of *Mistral: Dynamically Managing Power, Performance,
and Adaptation Cost in Cloud Infrastructures* (ICDCS 2010).

The package provides:

- ``repro.core`` — the Mistral controller stack: configurations,
  adaptation actions, the utility model, the Perf-Pwr optimizer, the
  Naive/Self-Aware A* adaptation search, and the controller hierarchy.
- ``repro.cluster`` / ``repro.apps`` / ``repro.perfmodel`` /
  ``repro.power`` / ``repro.workload`` / ``repro.costmodel`` — the
  substrates: a simulated Xen cluster, multi-tier application models,
  the LQN performance model, the power model, workload traces with
  ARMA stability prediction, and offline cost tables.
- ``repro.baselines`` — the Perf-Pwr / Perf-Cost / Pwr-Cost baselines.
- ``repro.testbed`` — the experiment rig (scenarios, runs, metrics).
- ``repro.experiments`` — one module per paper figure/table.
- ``repro.telemetry`` — metrics registry, span tracer, and JSONL
  trace sinks (off by default; see DESIGN.md §9).
- ``repro.faults`` — deterministic fault injection (action failures
  and stalls, host crashes) and the recovery machinery: retries,
  rollback, re-planning, search degradation (off by default; see
  docs/OPERATIONS.md and DESIGN.md §10).

Quickstart::

    from repro import telemetry
    from repro.testbed import make_testbed, build_mistral

    testbed = make_testbed(app_count=2, seed=0)
    controller, initial = build_mistral(testbed)

    telemetry.enable(jsonl_path="mistral_trace.jsonl")
    metrics = testbed.run(controller, initial, "mistral")
    telemetry.disable()

    print(metrics.cumulative_utility())
    # Then: python scripts/telemetry_report.py mistral_trace.jsonl
    # for per-controller decision tables, search/prune counts, and
    # cache hit ratios rolled up from the trace.
"""

from __future__ import annotations

__version__ = "1.0.0"

_EXPORTS = {
    "Application": "repro.apps",
    "ApplicationSet": "repro.apps",
    "TierSpec": "repro.apps",
    "TransactionType": "repro.apps",
    "make_rubis_application": "repro.apps",
    "Configuration": "repro.core.config",
    "ConstraintLimits": "repro.core.config",
    "Placement": "repro.core.config",
    "VmCatalog": "repro.core.config",
    "VmDescriptor": "repro.core.config",
    "UtilityModel": "repro.core.utility",
    "UtilityParameters": "repro.core.utility",
    "MistralController": "repro.core.controller",
    "ControllerHierarchy": "repro.core.hierarchy",
    "AdaptationSearch": "repro.core.search",
    "SearchSettings": "repro.core.search",
    "PerfPwrOptimizer": "repro.core.perf_pwr",
    "FaultConfig": "repro.faults",
    "FaultInjector": "repro.faults",
    "HostCrash": "repro.faults",
    "ScriptedActionFault": "repro.faults",
    "RecoveryPolicy": "repro.faults",
    "DegradationSettings": "repro.faults",
    "Testbed": "repro.testbed",
    "TestbedSettings": "repro.testbed",
    "demo_fault_config": "repro.testbed",
    "make_testbed": "repro.testbed",
    "build_mistral": "repro.testbed",
    "build_perf_pwr": "repro.testbed",
    "build_perf_cost": "repro.testbed",
    "build_pwr_cost": "repro.testbed",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, name)


def __dir__():
    return __all__
