"""Pluggable search strategy conformance (DESIGN.md §14).

The contract under test, shared by every backend behind
``SearchSettings.strategy``:

- ``"astar"`` is the exact loop — dispatching through
  ``AdaptationSearch.search`` must be bit-identical to running it
  directly, on the incremental path and on the full re-evaluation
  oracle.
- The annealing walker is deterministic (one fixed seed), returns
  a feasible (replayable) plan or an explicit no-op, respects the
  deadline watchdog, and stamps ``SearchOutcome.strategy``.
- Strategy selection flows through ``SearchSettings.strategy``, the
  ``MISTRAL_SEARCH_STRATEGY`` environment variable and
  ``build_mistral`` — with the retired name ``"mcts"`` selecting
  annealing and unknown names failing loudly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.actions import ActionError
from repro.core.search import (
    PER_CHILD_EVAL_SECONDS,
    STRATEGY_KINDS,
    AdaptationSearch,
    SearchSettings,
    _AStar,
    _SearchRun,
)
from repro.core.strategies import AnnealingWalker, resolve_strategy_name
from repro.telemetry.provenance import ProvenanceCollector
from repro.testbed.scenarios import (
    _global_perf_pwr,
    build_mistral,
    initial_configuration,
    make_testbed,
)

#: Everything a search outcome decides; ``wall_seconds`` and the
#: ``pool_*`` tallies are measured time, excluded by the contract.
OUTCOME_FIELDS = (
    "actions",
    "final_configuration",
    "predicted_utility",
    "expansions",
    "decision_seconds",
    "pruning_activated",
    "optimal",
    "deadline_aborted",
    "strategy",
)

WALKERS = ("annealing",)


def _make_search(testbed, **settings_kwargs) -> AdaptationSearch:
    settings = SearchSettings(
        **{"self_aware": True, "incremental": True, **settings_kwargs}
    )
    return AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=settings,
    )


def _high_workloads(testbed, run: int = 0) -> dict[str, float]:
    """Load that forces a real multi-round search (harness methodology)."""
    return {
        name: 45.0 + 5.0 * index + run
        for index, name in enumerate(testbed.applications.names())
    }


def _run(search, testbed, run: int = 0):
    start = initial_configuration(testbed)
    workloads = _high_workloads(testbed, run)
    return search.search(start, workloads, 300.0)


def _assert_outcomes_identical(reference, candidate) -> None:
    for field in OUTCOME_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), field


# -- selection plumbing --------------------------------------------------------


def test_strategy_kinds_registry_complete():
    """Every declared strategy kind resolves to itself, and settings
    accept it."""
    assert STRATEGY_KINDS == ("astar", "annealing")
    for name in STRATEGY_KINDS:
        assert resolve_strategy_name(name) == name
        assert SearchSettings(strategy=name).strategy == name


def test_unknown_strategy_fails_loudly():
    with pytest.raises(ValueError, match="unknown search strategy"):
        resolve_strategy_name("beam")
    with pytest.raises(ValueError):
        SearchSettings(strategy="beam")


def test_env_var_selects_strategy(monkeypatch, small_testbed):
    """``strategy=None`` defers to MISTRAL_SEARCH_STRATEGY."""
    monkeypatch.setenv("MISTRAL_SEARCH_STRATEGY", "annealing")
    assert resolve_strategy_name(None) == "annealing"
    outcome = _run(_make_search(small_testbed), small_testbed)
    assert outcome.strategy == "annealing"
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY")
    assert resolve_strategy_name(None) == "astar"


def test_env_var_unknown_name_raises(monkeypatch):
    monkeypatch.setenv("MISTRAL_SEARCH_STRATEGY", "hillclimb")
    with pytest.raises(ValueError, match="hillclimb"):
        resolve_strategy_name(None)


def test_build_mistral_wires_strategy(small_testbed):
    controller, _ = build_mistral(small_testbed, search_strategy="annealing")
    searches = [level1.search for level1 in controller.level1] + [
        controller.level2.search
    ]
    assert searches
    for search in searches:
        assert search.settings.strategy == "annealing"


def test_build_mistral_strategy_runs_every_search_of_a_testbed_run(
    small_testbed,
):
    """The backend ``build_mistral`` wires is the one every search of a
    testbed run executes; the run itself chooses none."""
    from repro import telemetry

    controller, start = build_mistral(small_testbed, search_strategy="annealing")
    telemetry.enable()
    try:
        small_testbed.run(controller, start, "mistral", horizon=900.0)
        counters = telemetry.runtime.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
    assert counters.get("search.strategy.annealing.runs", 0) >= 1
    assert counters.get("search.strategy.astar.runs", 0) == 0


def test_outcome_stamps_strategy(small_testbed):
    for name in STRATEGY_KINDS:
        outcome = _run(_make_search(small_testbed, strategy=name), small_testbed)
        assert outcome.strategy == name


# -- astar bit-identity --------------------------------------------------------


@pytest.mark.parametrize("incremental", [True, False])
def test_astar_dispatch_bit_identical(incremental, small_testbed):
    """``strategy="astar"`` through the dispatcher reproduces the A*
    run directly on its search context exactly — on the incremental
    path and on the full oracle."""
    direct_search = _make_search(small_testbed, incremental=incremental)
    start = initial_configuration(small_testbed)
    workloads = _high_workloads(small_testbed)
    direct = _AStar(
        _SearchRun(
            direct_search, start, workloads, 300.0, direct_search.settings
        ),
        None,
        None,
    ).search()
    dispatched = _run(
        _make_search(
            small_testbed, strategy="astar", incremental=incremental
        ),
        small_testbed,
    )
    for field in OUTCOME_FIELDS:
        if field == "strategy":
            continue  # the dispatcher stamps it post-hoc
        assert getattr(dispatched, field) == getattr(direct, field), field
    assert dispatched.strategy == "astar"


def test_astar_default_unchanged(small_testbed, monkeypatch):
    """No strategy anywhere (settings or env) → the exact A*."""
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY", raising=False)
    outcome = _run(_make_search(small_testbed), small_testbed)
    assert outcome.strategy == "astar"


# -- walker conformance --------------------------------------------------------


@pytest.mark.parametrize("name", WALKERS)
def test_walker_seed_determinism(name, small_testbed):
    """Two runs from fresh searches decide identically: the walker's
    RNG is seeded from a constant, and the wall clock only feeds the
    (disabled) watchdog."""
    first = _run(_make_search(small_testbed, strategy=name), small_testbed)
    second = _run(_make_search(small_testbed, strategy=name), small_testbed)
    _assert_outcomes_identical(first, second)


@pytest.mark.parametrize("name", WALKERS)
def test_walker_plan_is_replayable(name, small_testbed):
    """The returned plan applies cleanly action-by-action from the
    start configuration and lands exactly on ``final_configuration``
    (feasible), or is the explicit no-op (empty plan, start config)."""
    outcome = _run(_make_search(small_testbed, strategy=name), small_testbed)
    configuration = initial_configuration(small_testbed)
    for action in outcome.actions:
        configuration = action.apply(
            configuration, small_testbed.catalog, small_testbed.limits
        )
    assert configuration == outcome.final_configuration
    if not outcome.actions:
        assert outcome.final_configuration == initial_configuration(
            small_testbed
        )


@pytest.mark.parametrize("name", WALKERS)
def test_walker_beats_or_matches_null_plan(name, small_testbed):
    """Anytime invariant: the incumbent starts at the explicit null
    plan, so the returned plan never predicts worse than doing
    nothing."""
    start = initial_configuration(small_testbed)
    workloads = _high_workloads(small_testbed)
    null_value = (
        300.0
        * small_testbed.estimator.estimate(start, workloads).total_rate
    )
    search = _make_search(small_testbed, strategy=name)
    outcome = search.search(start, workloads, 300.0)
    assert outcome.predicted_utility >= null_value - 1e-9


@pytest.mark.parametrize("name", STRATEGY_KINDS)
def test_deadline_watchdog_bounds_overshoot(name, small_testbed):
    """An already-expired deadline aborts every strategy almost
    immediately — the cooperative check runs at least once per
    expansion/iteration, so the overshoot is bounded by one step, and
    the outcome still carries a feasible incumbent."""
    search = _make_search(
        small_testbed, strategy=name, deadline_seconds=1e-9
    )
    start = initial_configuration(small_testbed)
    workloads = _high_workloads(small_testbed)
    outcome = search.search(start, workloads, 300.0)
    assert outcome.deadline_aborted
    assert outcome.strategy == name
    # Generous bound: one expansion/iteration, not a full search.
    assert outcome.wall_seconds < 30.0
    configuration = start
    for action in outcome.actions:
        configuration = action.apply(
            configuration, small_testbed.catalog, small_testbed.limits
        )
    assert configuration == outcome.final_configuration


@pytest.mark.parametrize("name", WALKERS)
def test_walker_deadline_none_is_deterministic_anytime(name, small_testbed):
    """Without a deadline the walker never reads the wall clock on the
    decision path: a deadline far in the future decides exactly like no
    deadline at all."""
    relaxed = _run(
        _make_search(small_testbed, strategy=name, deadline_seconds=3600.0),
        small_testbed,
    )
    unbounded = _run(
        _make_search(small_testbed, strategy=name), small_testbed
    )
    for field in OUTCOME_FIELDS:
        if field == "deadline_aborted":
            continue
        assert getattr(relaxed, field) == getattr(unbounded, field), field
    assert not relaxed.deadline_aborted
    assert not unbounded.deadline_aborted


@pytest.mark.parametrize("name", WALKERS)
def test_walker_emits_strategy_telemetry(name, small_testbed):
    """Each walker run lands the per-strategy counters and the
    dispatcher's ``search.strategy`` selection counter, and decides as
    the same search with telemetry off does."""
    from repro import telemetry

    telemetry.enable()
    try:
        traced = _run(_make_search(small_testbed, strategy=name), small_testbed)
        snapshot = telemetry.runtime.registry.snapshot()
        counters = snapshot["counters"]
        assert counters.get(f"search.strategy.{name}.runs", 0) >= 1
        assert counters.get(f"search.strategy.{name}.iterations", 0) >= 1
        evaluations = counters.get(f"search.strategy.{name}.evaluations", 0)
        # The walker prices each child it builds once and a revisited
        # child not again, so the cost-memo lookups count the builds.
        built = counters.get("costmodel.predictions", 0) + counters.get(
            "costmodel.memo_hits", 0
        )
        assert 1 <= built < evaluations
    finally:
        telemetry.disable()
    untraced = _run(_make_search(small_testbed, strategy=name), small_testbed)
    _assert_outcomes_identical(traced, untraced)


@pytest.fixture(scope="module")
def apps4_testbed():
    return make_testbed(app_count=4, seed=0)


def _always_rebuild(self, node, action, delta=None, *, store=True):
    """``AnnealingWalker.make_child`` without the memo: every visit
    validates (when no delta is given) and builds the child afresh."""
    run = self.run
    if delta is None:
        search = run.search
        try:
            delta = action.placement_delta(
                node.configuration, search.catalog, search.limits
            )
        except ActionError:
            return None
    child = run.child(node, action, delta, run.steady(node))
    self.evaluations += 1
    self.virtual_seconds += PER_CHILD_EVAL_SECONDS
    return child


def _traced_walk(testbed, run: int, monkeypatch) -> tuple:
    """One annealing search with telemetry and provenance on, from a
    cold estimator: its outcome, every candidate note in order, and
    the number of children it built (its cost-memo lookups: one per
    child built)."""
    from repro import telemetry

    notes = []
    note_candidate = ProvenanceCollector.note_candidate

    def recording(collector, utility, actions):
        notes.append((utility.hex(), tuple(actions)))
        note_candidate(collector, utility, actions)

    testbed.estimator.clear_cache()
    with monkeypatch.context() as patch:
        patch.setattr(ProvenanceCollector, "note_candidate", recording)
        telemetry.enable()
        try:
            outcome = _run(
                _make_search(testbed, strategy="annealing"), testbed, run
            )
            counters = telemetry.runtime.registry.snapshot()["counters"]
        finally:
            telemetry.disable()
    built = counters.get("costmodel.predictions", 0) + counters.get(
        "costmodel.memo_hits", 0
    )
    return outcome, notes, built


@pytest.mark.parametrize(
    "apps, run",
    [(2, 0), (2, 1), (2, 2), (4, 0)],
    ids=["apps2-load0", "apps2-load1", "apps2-load2", "apps4-load0"],
)
def test_walker_child_memo_matches_always_rebuild(
    apps, run, small_testbed, apps4_testbed, monkeypatch
):
    """The walker keeps each (vertex, action) child it builds for the
    rest of its search.  A walker that rebuilds the child on every
    visit decides identically, charges identically and offers the
    same candidates in the same order; the memo only builds fewer
    children."""
    testbed = small_testbed if apps == 2 else apps4_testbed
    memo, memo_notes, memo_built = _traced_walk(testbed, run, monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(AnnealingWalker, "make_child", _always_rebuild)
        rebuilt, rebuilt_notes, rebuilt_built = _traced_walk(
            testbed, run, monkeypatch
        )
    assert memo.actions == rebuilt.actions
    assert memo.final_configuration == rebuilt.final_configuration
    assert memo.predicted_utility.hex() == rebuilt.predicted_utility.hex()
    assert memo.decision_seconds.hex() == rebuilt.decision_seconds.hex()
    assert memo.expansions == rebuilt.expansions
    memo_stats = dict(memo.provenance.search)
    rebuilt_stats = dict(rebuilt.provenance.search)
    for stats in (memo_stats, rebuilt_stats):
        del stats["wall_seconds"]  # measured, not decided
    assert memo_stats == rebuilt_stats
    assert memo_built < memo_stats["children_generated"] == rebuilt_built
    assert memo_notes and memo_notes == rebuilt_notes


def test_walker_beam_reads_the_child_memo_without_storing(small_testbed):
    """The beam keeps none of its children (its tiers are almost all
    new ones); a replay keeps every step of its plan, so replaying the
    plan again returns the same vertex."""
    search = _make_search(small_testbed, strategy="annealing")
    run = _SearchRun(
        search,
        initial_configuration(small_testbed),
        _high_workloads(small_testbed),
        300.0,
        search.settings,
    )
    run.prepare(True)
    walker = AnnealingWalker(run)
    assert walker.beam() >= 1
    assert walker.evaluations > 0 and run.root.children is None
    plan = walker.best_actions
    assert plan
    end = walker.replay(plan)
    node = run.root
    for action in plan:
        node = node.children[action]
    assert node is end
    evaluations = walker.evaluations
    assert walker.replay(plan) is end
    assert walker.evaluations == evaluations + len(plan)


def test_watchdog_abort_steps_controller_ladder_down(small_testbed):
    """A walker's watchdog abort is a resilience fault: the controller
    tallies it, feeds the degradation ladder, and the pruned rung it
    lands on pins the next search back to the exact A*."""
    from repro.core.controller import MistralController
    from repro.faults import DegradationSettings
    from repro.workload.monitor import WorkloadMonitor

    search = _make_search(
        small_testbed, strategy="annealing", deadline_seconds=1e-9
    )
    controller = MistralController(
        name="chaos-L1",
        search=search,
        monitor=WorkloadMonitor(band_width=8.0),
    )
    controller.enable_resilience(DegradationSettings(escalate_after=1))
    decision = controller.on_sample(
        0.0,
        _high_workloads(small_testbed),
        initial_configuration(small_testbed),
    )
    assert decision is not None
    assert decision.outcome.deadline_aborted
    assert controller.stats.watchdog_aborts == 1
    assert controller.resilience.level == "pruned"
    pruned = controller._search_settings_for_level("pruned")
    assert pruned.strategy == "astar"
    assert pruned.self_aware


def test_settings_are_immutable_value_objects():
    """Strategy fields ride the frozen dataclass like every other
    setting — ``dataclasses.replace`` is the way to vary them."""
    settings = SearchSettings(strategy="astar", deadline_seconds=5.0)
    replaced = dataclasses.replace(settings, strategy="annealing")
    assert settings.strategy == "astar"
    assert replaced.strategy == "annealing"
    assert replaced.deadline_seconds == 5.0


def test_mcts_name_selects_annealing(monkeypatch, small_testbed):
    """The retired ``"mcts"`` name, given to ``SearchSettings``,
    ``MISTRAL_SEARCH_STRATEGY`` or ``build_mistral``, runs the annealing
    walker: the same decision, stamped ``annealing``."""
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY", raising=False)
    reference = _run(
        _make_search(small_testbed, strategy="annealing"), small_testbed
    )
    assert reference.strategy == "annealing"
    assert SearchSettings(strategy="mcts").strategy == "annealing"
    via_settings = _run(
        _make_search(small_testbed, strategy="mcts"), small_testbed
    )
    _assert_outcomes_identical(reference, via_settings)

    monkeypatch.setenv("MISTRAL_SEARCH_STRATEGY", "mcts")
    assert resolve_strategy_name(None) == "annealing"
    via_env = _run(_make_search(small_testbed), small_testbed)
    _assert_outcomes_identical(reference, via_env)
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY")

    start = initial_configuration(small_testbed)
    workloads = _high_workloads(small_testbed)
    decisions = {}
    for name in ("annealing", "mcts"):
        controller, _ = build_mistral(small_testbed, search_strategy=name)
        search = controller.level2.search
        assert search.settings.strategy == "annealing"
        decisions[name] = search.search(start, workloads, 300.0)
    assert decisions["annealing"].strategy == "annealing"
    _assert_outcomes_identical(decisions["annealing"], decisions["mcts"])
