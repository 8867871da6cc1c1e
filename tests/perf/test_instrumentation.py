"""Tests for repro.perf: instrumentation and cProfile integration."""

import pstats
import tracemalloc

from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement
from repro.perf import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    NullInstrumentation,
    profile_to,
    render_profile,
)
from repro.sim.engine import Simulator

KB = 1024


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------

def test_phases_accumulate_across_reentry():
    inst = Instrumentation()
    with inst.phase("work"):
        pass
    first = inst.phases["work"]
    with inst.phase("work"):
        pass
    assert inst.phases["work"] > first
    assert set(inst.phases) == {"work"}


def test_counters_accumulate():
    inst = Instrumentation()
    inst.add("packets")
    inst.add("packets", 4)
    assert inst.counters["packets"] == 5


def test_observe_simulator_folds_engine_counters():
    sim = Simulator()
    for index in range(10):
        sim.schedule(0.001 * (index + 1), lambda: None)
    sim.run()
    inst = Instrumentation()
    inst.observe_simulator(sim)
    assert inst.counters["events_processed"] == 10
    assert inst.counters["events_scheduled"] == 10
    assert inst.counters["peak_heap"] == sim.peak_heap
    # A second simulator accumulates, except the high-water mark.
    inst.observe_simulator(sim)
    assert inst.counters["events_processed"] == 20
    assert inst.counters["peak_heap"] == sim.peak_heap


def test_events_per_sec_requires_phase_and_events():
    inst = Instrumentation()
    assert inst.events_per_sec() is None
    inst.phases["simulate"] = 2.0
    inst.counters["events_processed"] = 1000
    assert inst.events_per_sec() == 500.0


def test_report_is_json_ready():
    inst = Instrumentation()
    with inst.phase("simulate"):
        pass
    inst.counters["events_processed"] = 4
    report = inst.report()
    assert set(report) >= {"phases_s", "counters"}
    assert report["counters"]["events_processed"] == 4
    assert "tracemalloc" not in report


def test_tracemalloc_is_opt_in():
    was_tracing = tracemalloc.is_tracing()
    inst = Instrumentation(trace_allocations=True)
    try:
        assert tracemalloc.is_tracing()
        data = [0] * 1000
        report = inst.report()
        assert report["tracemalloc"]["peak_bytes"] > 0
        del data
    finally:
        inst.stop()
    assert tracemalloc.is_tracing() == was_tracing


def test_null_instrumentation_is_inert():
    assert not NULL_INSTRUMENTATION.enabled
    with NULL_INSTRUMENTATION.phase("anything"):
        NULL_INSTRUMENTATION.add("counter", 5)
    NULL_INSTRUMENTATION.observe_simulator(object())
    assert NULL_INSTRUMENTATION.report() == {}
    assert isinstance(NULL_INSTRUMENTATION, NullInstrumentation)


def test_measurement_accepts_instrumentation():
    inst = Instrumentation()
    result = Measurement(FlowSpec.single_path("wifi"), 64 * KB,
                         seed=3).run(instrumentation=inst)
    assert result.completed
    assert set(inst.phases) >= {"setup", "simulate", "extract"}
    assert inst.counters["events_processed"] > 0
    assert inst.events_per_sec() > 0


def test_batch_telemetry_surfaces_in_profile():
    """Link burst batching counters (batched deliveries, mean burst
    size) reach the ``--profile`` report through
    ``observe_simulator``."""
    inst = Instrumentation()
    result = Measurement(FlowSpec.mptcp(carrier="att"), 256 * KB,
                         seed=3).run(instrumentation=inst)
    assert result.completed
    assert inst.counters["batches_posted"] > 0
    assert inst.counters["batch_entries"] >= inst.counters["batches_posted"]
    assert "batch_inline" in inst.counters
    report = inst.report()
    assert report["mean_burst"] > 1.0, \
        "bulk transfers must coalesce multi-packet bursts"


def test_merge_report_takes_max_of_high_water_marks():
    inst = Instrumentation()
    inst.counters["peak_heap"] = 5
    inst.counters["batches_posted"] = 2
    inst.merge_report({"phases_s": {}, "counters": {
        "peak_heap": 9, "batches_posted": 3}})
    inst.merge_report({"phases_s": {}, "counters": {"peak_heap": 7}})
    assert inst.counters["peak_heap"] == 9
    assert inst.counters["batches_posted"] == 5


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------

def _busywork():
    return sum(index * index for index in range(10_000))


def test_profile_to_writes_loadable_pstats(tmp_path):
    dump = tmp_path / "run.pstats"
    with profile_to(dump):
        _busywork()
    stats = pstats.Stats(str(dump))
    functions = {name for _, _, name in stats.stats}
    assert "_busywork" in functions


def test_render_profile_lists_top_functions(tmp_path):
    dump = tmp_path / "run.pstats"
    with profile_to(dump):
        _busywork()
    text = render_profile(dump, top=5)
    assert "cumulative" in text
    assert "_busywork" in text
