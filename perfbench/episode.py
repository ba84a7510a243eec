"""One closed-loop episode, in a fresh process.

Usage::

    python3 perfbench/episode.py --workload loop-apps2 --testbed-seed 0 \
        [--spans PATH]

Builds the workload's testbed and Mistral controller, runs
``Testbed.run`` to the workload's horizon with the invariant referee
on, and prints one JSON record as the last line of standard output:
set-up time (process start to the first monitoring sample), loop wall
time, per-window ``on_sample`` wall times, the decision digest,
cumulative utility, peak RSS, and, with ``--spans``, the per-layer
ledger.  A loop that raises still prints its record, with the error.

Untraced episodes also time a small fixed computation, the speed
probe, five times before set-up, before every window and five times
after the loop, outside every timed span; ``run.py`` uses the probes
to adjust the timings for how fast the host was running.

The parent (``run.py``) pins ``PYTHONHASHSEED`` and clears the
``MISTRAL_*`` switches before starting this process.
"""

import time


#: Work of one speed probe: about 15 ms on the reference host.
PROBE_STEPS = 50_000


def speed_probe() -> float:
    """Seconds for a fixed interpreter-bound computation that runs no
    code of the program, so the host's current speed shows in it."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_STEPS):
        key = (i % 61, i % 7)
        value = table.get(key, 1.0)
        table[key] = value * 0.999 + (i % 13) / (1.0 + value)
    sorted(table.values())
    return time.perf_counter() - start


_PROBES_BEFORE = [speed_probe() for _ in range(5)]
#: Set-up time is measured from here, before ``repro`` is imported.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import RUN_LABEL, WORKLOADS, expected_windows  # noqa: E402


class EpisodeLog:
    """What the loop did, window by window, seen from outside it."""

    def __init__(self) -> None:
        self.first_sample_at = None
        #: ``[sim time, on_sample wall s, decisions, referee-flagged,
        #: speed probe s]``
        self.windows: list[list] = []
        self._digest = hashlib.sha256()

    def begin_window(self, now: float, probe: bool) -> None:
        if self.first_sample_at is None:
            self.first_sample_at = time.perf_counter()
        self.windows.append([now, None, 0, False, speed_probe() if probe else None])

    def end_window(self, wall_s: float) -> None:
        self.windows[-1][1] = wall_s

    def decision(self, decision) -> None:
        """Fold one controller decision (null ones included) into the
        digest: sim time, controller, action list, predicted utility."""
        outcome = decision.outcome
        predicted = outcome.predicted_utility if outcome is not None else None
        line = "|".join(
            (
                repr(decision.time),
                decision.controller,
                ";".join(str(action) for action in decision.actions),
                repr(predicted),
            )
        )
        self._digest.update(line.encode() + b"\n")
        self.windows[-1][2] += 1

    def flag_window(self) -> None:
        self.windows[-1][3] = True

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


def _instrument(controller, log: EpisodeLog, probe: bool) -> None:
    """Time the testbed's ``on_sample`` call into the controller and
    record every decision each member controller returns.  With
    ``probe``, a speed probe runs just before each timed call."""
    members = (
        controller.controllers()
        if hasattr(controller, "controllers")
        else [controller]
    )
    for member in members:
        inner = member.on_sample

        def member_on_sample(now, workloads, configuration, busy=False, inner=inner):
            decision = inner(now, workloads, configuration, busy=busy)
            if decision is not None:
                log.decision(decision)
            return decision

        member.on_sample = member_on_sample

    top = controller.on_sample

    def on_sample(now, workloads, configuration, busy=False):
        log.begin_window(now, probe)
        start = time.perf_counter()
        try:
            return top(now, workloads, configuration, busy=busy)
        finally:
            log.end_window(time.perf_counter() - start)

    controller.on_sample = on_sample


def _controller_stats(controller) -> dict:
    members = (
        controller.controllers()
        if hasattr(controller, "controllers")
        else [controller]
    )
    estimators = {id(m.search.estimator): m.search.estimator for m in members}
    evaluations = sum(e.evaluations for e in estimators.values())
    incremental = sum(e.incremental_evaluations for e in estimators.values())
    decisions = sum(m.stats.decisions for m in members)
    return {
        "decisions": decisions,
        "useful": decisions - sum(m.stats.null_decisions for m in members),
        "expansions": sum(sum(m.stats.expansions) for m in members),
        "virtual_s": sum(sum(m.stats.search_seconds) for m in members),
        "evaluations": evaluations,
        "incremental_evaluations": incremental,
    }


def run_episode(name: str, testbed_seed: int, spans_path=None) -> dict:
    workload = WORKLOADS[name]
    from repro.testbed import testbed as testbed_module
    from repro.testbed.scenarios import build_mistral, make_testbed

    testbed = make_testbed(workload.app_count, seed=testbed_seed)
    controller, initial = build_mistral(
        testbed, search_strategy=workload.search_strategy
    )

    log = EpisodeLog()
    recorder = tracer = None
    if spans_path is not None:
        from tracing import LayerTracer, SpanRecorder

        recorder = SpanRecorder()
        tracer = LayerTracer(recorder, testbed.truth_solver)
        tracer.install()
    _instrument(controller, log, probe=spans_path is None)

    # The referee runs inside ``Testbed.run``; note which window a
    # violation belongs to.
    referee = testbed_module.check_invariants

    def check_invariants(*args, **kwargs):
        violations = referee(*args, **kwargs)
        if violations:
            log.flag_window()
        return violations

    testbed_module.check_invariants = check_invariants
    error = None
    metrics = None
    loop_start = time.perf_counter()
    try:
        metrics = testbed.run(
            controller,
            initial,
            RUN_LABEL,
            horizon=workload.horizon,
            invariants=True,
        )
    except Exception:  # noqa: BLE001 - reported in the record, not hidden
        error = traceback.format_exc()
    finally:
        loop_s = time.perf_counter() - loop_start - sum(
            window[4] for window in log.windows if window[4] is not None
        )
        testbed_module.check_invariants = referee
        if tracer is not None:
            tracer.uninstall()

    violations = metrics.invariant_violations if metrics is not None else []
    flagged_at = [window[0] for window in log.windows if window[3]]
    record = {
        "workload": name,
        "testbed_seed": testbed_seed,
        "setup_s": (
            log.first_sample_at - _PROCESS_START
            if log.first_sample_at is not None
            else None
        ),
        "loop_s": loop_s,
        "expected_windows": expected_windows(workload),
        "windows": log.windows,
        "digest": log.digest,
        "cum_utility": (
            metrics.cumulative_utility() if metrics is not None else None
        ),
        "violations": None if metrics is None else len(violations),
        "first_violation": (
            f"at t={flagged_at[0]:g}: {violations[0].name}: {violations[0].detail}"
            if violations
            else None
        ),
        "controller": _controller_stats(controller),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes_before": _PROBES_BEFORE,
        "probes_after": [speed_probe() for _ in range(5)],
        "error": error,
    }
    if recorder is not None and error is None:
        from tracing import ledger_of

        recorder.save(spans_path)
        record["ledger"] = asdict(ledger_of(recorder))
        record["counters"] = dict(recorder.counters)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--testbed-seed", type=int, required=True)
    parser.add_argument(
        "--spans", help="trace the layers and write the spans to this .npz"
    )
    args = parser.parse_args()
    record = run_episode(args.workload, args.testbed_seed, args.spans)
    print(json.dumps(record))
    return 0 if record["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
