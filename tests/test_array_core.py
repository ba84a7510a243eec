"""The A*'s expansion rounds (DESIGN.md §13).

The contract under test: the rounds — cached action blocks, prefix-sum
ranking, child keys spliced from the codec's bytes — are the
incremental search's only way to expand a vertex, scoped searches
included, and they change *how fast* rounds are evaluated, never
*what* the search decides.  Every decision must be bit-identical to
the full re-evaluation oracle (``SearchSettings(incremental=False)``),
every pruned round must rank as the scalar ``child_distance`` does,
and the codec must round-trip configurations exactly.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ConfigCodec, Configuration, Placement
from repro.core.rounds import ArrayBasis
from repro.core.search import (
    PRUNE_FRACTION,
    AdaptationSearch,
    SearchSettings,
)
from repro.telemetry import runtime as telemetry
from repro.testbed.scenarios import (
    _global_perf_pwr,
    build_mistral,
    build_perf_cost,
    initial_configuration,
    make_testbed,
)

#: Everything a search outcome decides; wall-clock is measured time,
#: excluded by the contract.
OUTCOME_FIELDS = (
    "actions",
    "final_configuration",
    "predicted_utility",
    "expansions",
    "decision_seconds",
    "pruning_activated",
    "optimal",
)


@pytest.fixture(autouse=True)
def _pin_astar_backend(monkeypatch):
    """This suite specifies the A* loop itself; the
    MISTRAL_SEARCH_STRATEGY CI leg must not swap the backend here."""
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY", raising=False)



VM_UNIVERSE = tuple(f"vm-{index}" for index in range(8))
HOST_UNIVERSE = tuple(f"host-{index}" for index in range(5))


@pytest.fixture(scope="module")
def array_testbed():
    """A private 2-app testbed: these tests run the same searches the
    incremental-engine tests do, and sharing the session testbed would
    pre-warm its estimator caches out from under them."""
    return make_testbed(app_count=2, seed=0)


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


def _outcomes(search, testbed, runs=2):
    start = initial_configuration(testbed)
    outcomes = []
    for run in range(runs):
        workloads = {
            name: 45.0 + 5.0 * index + run
            for index, name in enumerate(testbed.applications.names())
        }
        search.perf_pwr.optimize(workloads)
        outcomes.append(search.search(start, workloads, 300.0))
    return outcomes


def _assert_outcomes_identical(reference, candidate) -> None:
    for field in OUTCOME_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), field


# -- codec round-trip ----------------------------------------------------------


@st.composite
def configurations(draw) -> Configuration:
    """Random in-universe configurations: a subset of VMs placed on
    random hosts with arbitrary positive caps, powered = used hosts
    plus random idle extras."""
    placements = {}
    used = set()
    for vm_id in VM_UNIVERSE:
        if draw(st.booleans()):
            host = draw(st.sampled_from(HOST_UNIVERSE))
            cap = draw(
                st.floats(
                    min_value=1e-6,
                    max_value=1.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            placements[vm_id] = Placement(host, cap)
            used.add(host)
    extras = draw(st.sets(st.sampled_from(HOST_UNIVERSE)))
    return Configuration(placements, used | extras)


@settings(max_examples=200, deadline=None)
@given(configuration=configurations())
def test_codec_round_trip_is_bit_exact(configuration):
    """decode(encode(c)) reproduces the configuration exactly — same
    placements (cap floats compared by raw bits), same powered set,
    equal and hash-equal to the original."""
    codec = ConfigCodec(VM_UNIVERSE, HOST_UNIVERSE)
    decoded = codec.decode(codec.encode(configuration))
    assert decoded == configuration
    assert hash(decoded) == hash(configuration)
    for vm_id, placement in configuration.placement_items():
        twin = decoded.placement_of(vm_id)
        assert twin.host_id == placement.host_id
        assert twin.cpu_cap.hex() == placement.cpu_cap.hex()
    assert decoded.powered_hosts == configuration.powered_hosts
    assert codec.encode_key(decoded) == codec.encode_key(configuration)


@settings(max_examples=100, deadline=None)
@given(first=configurations(), second=configurations())
def test_codec_keys_are_injective(first, second):
    """Distinct configurations get distinct byte keys (and equal ones
    equal keys) — the dedup invariant the array search relies on."""
    codec = ConfigCodec(VM_UNIVERSE, HOST_UNIVERSE)
    same_key = codec.encode_key(first) == codec.encode_key(second)
    assert same_key == (first == second)


def test_codec_rejects_out_of_universe_configurations():
    codec = ConfigCodec(VM_UNIVERSE, HOST_UNIVERSE)
    with pytest.raises(KeyError):
        codec.encode(
            Configuration({"stranger": Placement("host-0", 0.2)}, {"host-0"})
        )
    with pytest.raises(KeyError):
        codec.encode(Configuration({}, {"elsewhere"}))


# -- bit-identity: expansion rounds vs the full re-evaluation oracle ----------


def test_array_core_outcomes_bit_identical_to_legacy(array_testbed):
    """The expansion rounds reproduce the full re-evaluation oracle's
    outcomes exactly — actions, configurations, float utilities,
    expansion counts, and the Eq. 3 decision seconds."""
    oracle = _outcomes(
        _make_search(array_testbed, incremental=False), array_testbed
    )
    array = _outcomes(_make_search(array_testbed), array_testbed)
    for reference, candidate in zip(oracle, array):
        _assert_outcomes_identical(reference, candidate)


def test_scoped_search_runs_the_array_rounds():
    """A scoped search — here a Perf-Cost application search, confined
    to its two dedicated hosts while the other application's VMs sit
    outside its scope — expands in the rounds, because its codec
    spans the whole cluster.  Its outcome equals the full oracle's."""
    testbed = make_testbed(2, seed=0)
    controller, initial = build_perf_cost(testbed)
    search = next(iter(controller.app_searches.values()))
    assert search.scope_hosts < frozenset(testbed.host_ids)
    workloads = {name: 70.0 for name in testbed.applications.names()}
    telemetry.enable()
    try:
        outcome = search.search(initial, workloads, 600.0)
        counters = telemetry.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
    assert counters.get("search.rounds", 0) > 0
    assert outcome.expansions > 0
    search.settings = dataclasses.replace(search.settings, incremental=False)
    oracle = search.search(initial, workloads, 600.0)
    _assert_outcomes_identical(oracle, outcome)


# -- pruned rounds vs the oracle ----------------------------------------------


def _pruned_searches(testbed, incremental):
    """Three searches whose self-aware budget is spent at once
    (``UH = 0`` drained at 1e3/s), so every round after the first is
    pruned to the ~5% closest children."""
    search = _make_search(testbed, incremental=incremental, max_expansions=150)
    start = initial_configuration(testbed)
    names = testbed.applications.names()
    return [
        search.search(
            start,
            {name: 40.0 + 5.0 * index + run for index, name in enumerate(names)},
            300.0,
            expected_utility=0.0,
            expected_rate=1e3,
        )
        for run in range(3)
    ]


def _scoped_searches(testbed, incremental):
    """The 4-app hierarchy's two scoped 1st-level searches, each from a
    start that leaves it work: the initial configuration (every VM on
    hosts 0-3) for the first, a six-host Perf-Pwr plan for the second."""
    hierarchy, start = build_mistral(testbed)
    names = testbed.applications.names()
    spread = _global_perf_pwr(testbed).optimize(
        {name: 60.0 for name in names}
    )
    workloads = {name: 50.0 for name in names}
    outcomes = []
    for level1, origin in zip(hierarchy.level1, (start, spread.configuration)):
        search = level1.search
        assert search.scope_hosts < frozenset(testbed.host_ids)
        search.settings = dataclasses.replace(
            search.settings, incremental=incremental
        )
        outcomes.append(search.search(origin, workloads, 300.0))
        assert outcomes[-1].expansions > 0
    return outcomes


def test_narrow_and_pruned_rounds_match_the_oracle(monkeypatch):
    """Pruned rounds rank by ``distances`` and build only the closest
    children, a path the wide, unpruned searches above never reach.
    Forced-pruning and scoped 1st-level searches run both pruned and
    unpruned rounds and decide exactly as the oracle does (each side on
    its own testbeds, so neither can reuse the other's estimates)."""
    rounds = {"all": 0, "pruned": 0}
    round_values = ArrayBasis.round_values
    distances = ArrayBasis.distances

    def counted_round_values(self, *args):
        rounds["all"] += 1
        return round_values(self, *args)

    def counted_distances(self, *args):
        rounds["pruned"] += 1
        return distances(self, *args)

    monkeypatch.setattr(ArrayBasis, "round_values", counted_round_values)
    monkeypatch.setattr(ArrayBasis, "distances", counted_distances)
    outcomes = {}
    for incremental in (True, False):
        outcomes[incremental] = _pruned_searches(
            make_testbed(2, seed=0), incremental
        ) + _scoped_searches(make_testbed(4, seed=0), incremental)
    assert rounds["all"] > rounds["pruned"] > 0, rounds
    for reference, candidate in zip(outcomes[False], outcomes[True]):
        _assert_outcomes_identical(reference, candidate)


def test_pruned_rounds_rank_like_the_scalar_distance(monkeypatch):
    """Every pruned round's ranking against the scalar reference: each
    valid column's distance equals ``_SearchBasis.child_distance`` of
    its delta (``float.hex``), and the kept columns are the first
    ``ceil(PRUNE_FRACTION * n)`` of a stable sort by (distance,
    enumeration order), in that order — ties at the cut included."""
    distances = ArrayBasis.distances
    child_keys = ArrayBasis.child_keys
    expected: list = []
    checked = {"columns": 0, "rounds": 0, "ties": 0}

    def checked_distances(self, state, columns, rows):
        result = distances(self, state, columns, rows)
        for (_, delta, _, _), distance in zip(columns, result):
            reference = self.basis.child_distance(state, delta)
            assert distance.hex() == reference.hex()
        checked["columns"] += len(columns)
        order = sorted(range(len(columns)), key=lambda i: (result[i], i))
        keep = max(1, math.ceil(PRUNE_FRACTION * len(columns)))
        if len(columns) > keep:
            checked["ties"] += result[order[keep - 1]] == result[order[keep]]
        if columns:
            expected.append([columns[i] for i in order[:keep]])
        return result

    def checked_child_keys(self, columns, parent_key):
        if expected:
            assert columns == expected.pop()
            checked["rounds"] += 1
        return child_keys(self, columns, parent_key)

    monkeypatch.setattr(ArrayBasis, "distances", checked_distances)
    monkeypatch.setattr(ArrayBasis, "child_keys", checked_child_keys)
    _pruned_searches(make_testbed(2, seed=0), True)
    _scoped_searches(make_testbed(4, seed=0), True)
    assert not expected
    assert checked["rounds"] > 0 and checked["ties"] > 0, checked
    assert checked["columns"] > checked["rounds"], checked


# -- solver interop: array-assembled states feed update_state ------------------


def _assert_states_identical(left, right) -> None:
    assert left.configuration == right.configuration
    assert left.tiers.keys() == right.tiers.keys()
    for app, value in right.estimate.response_times.items():
        assert left.estimate.response_times[app].hex() == value.hex()
    assert left.estimate.tier_utilizations == right.estimate.tier_utilizations
    assert left.estimate.host_utilizations == right.estimate.host_utilizations


@pytest.mark.perf_smoke
def test_array_solve_batch_states_interoperate_with_update_state(
    solver, base_configuration
):
    """A state assembled by ``solve_batch`` is a first-class parent for
    the scalar delta engine: chaining ``update_state`` off it reproduces
    a fresh scalar solve exactly."""
    workloads = {"RUBiS-1": 33.0, "RUBiS-2": 21.0}
    (state,) = solver.solve_batch([base_configuration], workloads)
    _assert_states_identical(
        state, solver.solve_state(base_configuration, workloads)
    )
    configuration = base_configuration
    for vm_id in base_configuration.placed_vm_ids()[:3]:
        placement = configuration.placement_of(vm_id)
        configuration = configuration.replace(
            vm_id,
            placement.with_cap(0.3 if placement.cpu_cap != 0.3 else 0.5),
        )
        state = solver.update_state(
            state, configuration, workloads, (vm_id,)
        )
        _assert_states_identical(
            state, solver.solve_state(configuration, workloads)
        )
