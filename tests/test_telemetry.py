"""Telemetry subsystem: instruments, tracing, and the off-switch contract."""

import json
import threading

import pytest

from repro.telemetry import runtime
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.trace import (
    SCHEMA_VERSION,
    JsonlFileSink,
    RingBufferSink,
    Tracer,
)


@pytest.fixture(autouse=True)
def telemetry_off():
    """Every test starts and ends with global telemetry disabled."""
    runtime.disable()
    runtime.registry.reset()
    yield
    runtime.disable()
    runtime.registry.reset()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_histogram_bucket_edges():
    histogram = Histogram("t", bounds=(0.001, 0.01, 0.1))
    # A value equal to a bound lands in that bound's bucket
    # (upper-bound / ``le`` convention).
    histogram.observe(0.001)
    histogram.observe(0.0005)  # below first bound -> bucket 0
    histogram.observe(0.0011)  # just above -> bucket 1
    histogram.observe(0.1)  # equal to last bound -> bucket 2
    histogram.observe(5.0)  # above every bound -> overflow
    assert histogram.counts == [2, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(0.001 + 0.0005 + 0.0011 + 0.1 + 5.0)
    assert histogram.mean == pytest.approx(histogram.sum / 5)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("t", bounds=())
    with pytest.raises(ValueError):
        Histogram("t", bounds=(0.1, 0.1))
    with pytest.raises(ValueError):
        Histogram("t", bounds=(0.2, 0.1))


def test_counter_accumulates_without_overflow():
    counter = Counter("c")
    # Push far past 2**64: Python ints are unbounded, the counter must
    # simply keep counting.
    counter.inc(2**64)
    counter.inc(2**64)
    counter.inc()
    assert counter.value == 2**65 + 1
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_registry_instruments_and_name_collisions():
    registry = MetricsRegistry()
    registry.counter("a").inc(3)
    assert registry.counter("a").value == 3  # same instrument returned
    registry.gauge("g").set(1.5)
    with pytest.raises(ValueError):
        registry.gauge("a")  # name already used by a counter
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a": 3}
    assert snapshot["gauges"] == {"g": 1.5}


def test_registry_cache_stats_aggregate_and_weakref():
    from repro.core.lru import LruDict

    registry = MetricsRegistry()
    first = LruDict(4)
    second = LruDict(4)
    registry.register_cache("test.cache", first)
    registry.register_cache("test.cache", second)
    first.put("k", 1)
    first.get("k")
    second.get("absent")
    stats = registry.cache_stats()["test.cache"]
    assert stats == {
        "instances": 2,
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "entries": 1,
    }
    del second
    assert registry.cache_stats()["test.cache"]["instances"] == 1


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_span_nesting_and_ordering_in_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonlFileSink(path))
    with tracer.span("outer", run=1) as outer:
        tracer.event("point", x=2)
        with tracer.span("inner") as inner:
            inner.set("deep", True)
        outer.set(done=True)
    tracer.sink.close()

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["kind"] == "meta"
    assert lines[0]["schema"] == SCHEMA_VERSION
    assert all(line["v"] == SCHEMA_VERSION for line in lines)

    by_name = {line["name"]: line for line in lines if line["kind"] != "meta"}
    outer_event = by_name["outer"]
    inner_event = by_name["inner"]
    point = by_name["point"]
    # Spans emit at close: the inner span appears before the outer.
    names = [line["name"] for line in lines[1:]]
    assert names == ["point", "inner", "outer"]
    # Nesting is reconstructed from parent/depth, not file order.
    assert outer_event["parent"] is None and outer_event["depth"] == 0
    assert inner_event["parent"] == outer_event["seq"]
    assert inner_event["depth"] == 1
    assert point["parent"] == outer_event["seq"]
    # Timestamps are monotonic and the durations nest.
    assert inner_event["t"] >= outer_event["t"]
    assert outer_event["dur"] >= inner_event["dur"] >= 0.0
    assert outer_event["attrs"] == {"run": 1, "done": True}
    assert inner_event["attrs"] == {"deep": True}


def test_ring_buffer_sink_caps_capacity():
    sink = RingBufferSink(capacity=3)
    tracer = Tracer(sink)
    for index in range(5):
        tracer.event("e", i=index)
    kept = [event["attrs"]["i"] for event in sink.events()]
    assert kept == [2, 3, 4]


@pytest.mark.parametrize("search_strategy", [None, "annealing"])
def test_disabled_mode_emits_nothing_and_touches_no_instruments(
    search_strategy,
):
    """With telemetry off, instrumented code paths must neither emit
    events nor look up any instrument — the exact A* and a walker
    alike."""

    class Exploding:
        # Cache *registration* is a constructor-time act and allowed
        # while disabled; only instrument lookups must not happen.
        def register_cache(self, name, cache):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"instrument access while disabled: {name}")

    sink = RingBufferSink()
    runtime.tracer.set_sink(sink)
    original_registry = runtime.registry
    runtime.registry = Exploding()
    try:
        from repro.testbed.scenarios import build_mistral, make_testbed

        testbed = make_testbed(2, seed=0)
        controller, initial = build_mistral(
            testbed, search_strategy=search_strategy
        )
        testbed.run(controller, initial, "mistral", horizon=600.0)
    finally:
        runtime.registry = original_registry
        runtime.tracer.set_sink(RingBufferSink())
    assert len(sink) == 0
    # A walker that touched an instrument would have raised and been
    # answered by the exact-A* fallback; none may have.
    assert all(
        node.stats.strategy_failures == 0 for node in controller.controllers()
    )

    # The no-op span hands out a shared object that swallows attrs.
    span = runtime.span("anything", a=1)
    with span as entered:
        entered.set("k", 1)
        entered.set(k2=2)
        entered["k3"] = 3


def test_enable_disable_cycle_routes_events(tmp_path):
    path = tmp_path / "cycle.jsonl"
    runtime.enable(jsonl_path=str(path))
    assert runtime.enabled
    with runtime.span("top", phase="test"):
        runtime.event("tick", n=1)
    runtime.registry.counter("c").inc(2)
    runtime.emit_metrics_snapshot(label="done")
    runtime.disable()
    assert not runtime.enabled

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [(line["kind"], line.get("name")) for line in lines]
    assert kinds == [
        ("meta", None),
        ("event", "tick"),
        ("span", "top"),
        ("event", "metrics.snapshot"),
    ]
    snapshot = lines[-1]["attrs"]["metrics"]
    assert snapshot["counters"]["c"] == 2
    assert lines[-1]["attrs"]["label"] == "done"


def test_tracer_span_stacks_are_thread_local():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with tracer.span("main-outer"):
        worker_done = threading.Event()

        def worker() -> None:
            with tracer.span("worker-span"):
                tracer.event("worker-event")
            worker_done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert worker_done.is_set()
        tracer.event("main-event")

    by_name = {event["name"]: event for event in sink.events()}
    outer = by_name["main-outer"]
    # The worker's span opened at the thread's own top level — not
    # nested under the main thread's open span.
    assert by_name["worker-span"]["parent"] is None
    assert by_name["worker-span"]["depth"] == 0
    assert by_name["worker-event"]["parent"] == by_name["worker-span"]["seq"]
    assert by_name["main-event"]["parent"] == outer["seq"]
    # Sequence numbers stay globally unique across threads.
    seqs = [event["seq"] for event in sink.events()]
    assert len(seqs) == len(set(seqs))


# ---------------------------------------------------------------------------
# whole-search smoke
# ---------------------------------------------------------------------------


def test_search_trace_matches_outcome(search_setup):
    """A traced search emits one search.run event whose expansion count
    matches the returned SearchOutcome."""
    search, start, workloads = search_setup
    sink = RingBufferSink()
    runtime.enable(sink=sink)
    try:
        outcome = search.search(start, workloads, 300.0)
    finally:
        runtime.disable()
    runs = [
        event for event in sink.events() if event["name"] == "search.run"
    ]
    assert len(runs) == 1
    attrs = runs[0]["attrs"]
    assert attrs["expansions"] == outcome.expansions
    assert attrs["actions"] == len(outcome.actions)
    assert attrs["decision_seconds"] == pytest.approx(
        outcome.decision_seconds
    )
    assert attrs["children_generated"] >= outcome.expansions
    # The registry saw the same totals.
    counters = runtime.registry.snapshot()["counters"]
    assert counters["search.runs"] == 1
    assert counters["search.expansions"] == outcome.expansions


def test_early_return_search_reports_wall_seconds(search_setup):
    """The no-escape path still measures wall time and flags itself."""
    search, start, workloads = search_setup
    # Search from the ideal configuration for the same workloads: the
    # second call starts where the optimizer already wants to be.
    ideal = search.perf_pwr.optimize(workloads).configuration
    sink = RingBufferSink()
    runtime.enable(sink=sink)
    try:
        outcome = search.search(ideal, workloads, 300.0)
    finally:
        runtime.disable()
    assert outcome.expansions == 0
    assert outcome.actions == ()
    assert outcome.wall_seconds > 0.0
    (run,) = [e for e in sink.events() if e["name"] == "search.run"]
    assert run["attrs"]["early_return"] is True
    assert run["attrs"]["dur"] == pytest.approx(outcome.wall_seconds)


@pytest.fixture(scope="module")
def search_setup():
    from repro.core.search import AdaptationSearch, SearchSettings
    from repro.testbed.scenarios import (
        _global_perf_pwr,
        initial_configuration,
        make_testbed,
    )

    testbed = make_testbed(2, seed=0)
    search = AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=SearchSettings(self_aware=True),
    )
    names = [app.name for app in testbed.applications]
    workloads = {
        name: 45.0 + 5.0 * index for index, name in enumerate(names)
    }
    return search, initial_configuration(testbed), workloads


# ---------------------------------------------------------------------------
# report CLI
# ---------------------------------------------------------------------------


def _report_module():
    import importlib.util
    from pathlib import Path

    path = (
        Path(__file__).resolve().parents[1]
        / "scripts"
        / "telemetry_report.py"
    )
    spec = importlib.util.spec_from_file_location("telemetry_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_rejects_unknown_schema_version(tmp_path):
    report = _report_module()
    path = tmp_path / "future.jsonl"
    path.write_text(
        json.dumps({"v": 999, "kind": "meta", "schema": 999, "attrs": {}})
        + "\n"
    )
    with pytest.raises(report.SchemaError, match="schema version 999"):
        report.read_trace(path)
    # And via the CLI: clear error, non-zero exit.
    assert report.main([str(path)]) == 1


def test_report_rolls_up_controller_decisions(tmp_path):
    report = _report_module()
    path = tmp_path / "trace.jsonl"
    runtime.enable(jsonl_path=str(path))
    try:
        with runtime.span(
            "controller.decision",
            controller="L1",
            null=False,
            actions=["AddVm"],
            expansions=12,
            decision_seconds=1.5,
            search_watts=7.2,
        ):
            pass
        runtime.emit_metrics_snapshot()
    finally:
        runtime.disable()
    rollup = report.build_report(report.read_trace(path))
    row = rollup["controllers"]["L1"]
    assert row["decisions"] == 1
    assert row["total_expansions"] == 12
    assert row["mean_decision_seconds"] == pytest.approx(1.5)
    assert row["mean_search_watts"] == pytest.approx(7.2)
    assert report.render(rollup)  # renders without error


def test_report_counts_perf_pwr_plans_and_steps(tmp_path, search_setup):
    """The perf-pwr line sums plans scored and steps over the
    ``perf_pwr.optimize`` events, and the solver line's re-solved tiers
    include the optimizer's per-move tier solves."""
    from repro.core.perf_pwr import PerfPwrOptimizer

    search, _, workloads = search_setup
    ideal = search.perf_pwr
    optimizer = PerfPwrOptimizer(
        ideal.applications,
        ideal.catalog,
        ideal.limits,
        ideal.estimator,
        ideal.host_ids,
    )
    report = _report_module()
    path = tmp_path / "trace.jsonl"
    runtime.enable(jsonl_path=str(path))
    try:
        optimizer.optimize(workloads)
        optimizer.optimize(
            {name: rate / 2 for name, rate in workloads.items()}
        )
        runtime.emit_metrics_snapshot()
    finally:
        runtime.disable()
    rollup = report.build_report(report.read_trace(path))
    efficiency = rollup["efficiency"]
    perf_pwr = efficiency["perf_pwr"]
    assert perf_pwr["optimizations"] == 2
    assert perf_pwr["plans_scored"] == optimizer.plans_scored
    assert perf_pwr["steps"] == optimizer.steps > 0
    moves = optimizer.plans_scored - 4  # two walk roots per optimization
    assert efficiency["solver"]["tiers_resolved"] == moves + optimizer.steps
    assert (
        f"{optimizer.plans_scored} plans scored in {optimizer.steps} steps"
        in report.render(rollup)
    )
