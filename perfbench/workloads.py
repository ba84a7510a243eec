"""The closed-loop workloads: which scenario, which search, how long.

Every workload drives the real Mistral loop (``make_testbed`` ->
``build_mistral`` -> ``Testbed.run``) with the hierarchy, model
feedback and trend extrapolation on and default ``SearchSettings``,
over the paper's World Cup + HP traces from 15:00.  The workloads
differ in scenario size and search backend, so that each puts a
different layer group on the critical path of the control window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Testbed seed of the timed episodes (the Fig. 9 / Table I runs).
REFERENCE_TESTBED_SEED = 0

#: Run label passed to ``Testbed.run``; it also names the run's noise
#: streams, so it is the Fig. 9 headline run's label.
RUN_LABEL = "mistral-self-aware"

#: The testbed's monitoring interval (``TestbedSettings`` default).
MONITORING_INTERVAL_S = 120.0

#: Host seconds one timed episode of any workload takes on the
#: reference host (2 cores, Python 3.11); a run makes
#: ``round(seconds / NOMINAL_EPISODE_S)`` of them.
NOMINAL_EPISODE_S = 6.5


@dataclass(frozen=True)
class Workload:
    name: str
    app_count: int
    #: ``search_strategy`` for ``build_mistral``; ``None`` keeps the
    #: default exact A*.
    search_strategy: Optional[str]
    #: Simulated seconds from 15:00, chosen so that one episode costs
    #: about ``NOMINAL_EPISODE_S`` host seconds.
    horizon: float
    #: Layer group this workload was chosen to load.
    loads: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="loop-apps2",
            app_count=2,
            search_strategy=None,
            horizon=3600.0,
            loads="astar",
        ),
        Workload(
            name="loop-apps4",
            app_count=4,
            search_strategy=None,
            horizon=1440.0,
            loads="ideal",
        ),
        Workload(
            name="loop-apps2-mcts",
            app_count=2,
            search_strategy="mcts",
            horizon=960.0,
            loads="walker",
        ),
    )
}


def expected_windows(workload: Workload) -> int:
    """Monitoring samples in ``[0, horizon]``: one at t=0, then one
    per interval."""
    return int(workload.horizon // MONITORING_INTERVAL_S) + 1
