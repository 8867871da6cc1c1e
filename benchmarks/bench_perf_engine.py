"""Engine microbenchmarks: events/sec through the simulation core.

Three workloads exercise the hot paths the campaign runner leans on:

* ``event_chain`` -- long dependent chains of timer callbacks (the
  steady-state shape of application-level pacing).
* ``packet_pipeline`` -- the link-layer shape: every packet costs one
  service-done event plus one delivery event, with a small number in
  flight.  The *fast* variant uses the arg-carrying anonymous
  :meth:`Simulator.post` path; the *legacy* variant allocates a
  closure and an Event handle per packet, the way the pre-overhaul
  code did.
* ``timer_churn`` -- an RTO-style timer reset per simulated ACK.  The
  fast variant uses :meth:`Simulator.reschedule` (re-keyed in place);
  the legacy variant cancels and re-schedules, leaving a tombstone in
  the heap each time.
* ``vectorized_pipeline`` -- the batched link shape (link burst
  batching): whole bursts of service completions are computed up front
  and posted as a *single* heap entry via
  :meth:`Simulator.post_batch`, drained inline without re-heapify.
  The legacy variant posts the identical delivery schedule one event
  at a time.  ``--check`` additionally gates this workload against an
  absolute floor: at least :data:`VECTORIZED_FLOOR` times the
  packet-pipeline events/sec recorded by the engine-overhaul baseline
  (:data:`PR3_PACKET_PIPELINE_EVENTS_PER_SEC`).

Each variant runs ``--reps`` times and the best (max events/sec) rep
is reported: on shared machines the minimum-time rep is the least
load-contaminated estimate.

Usage::

    python benchmarks/bench_perf_engine.py              # run + update JSON
    python benchmarks/bench_perf_engine.py --check      # CI regression gate
    python benchmarks/bench_perf_engine.py --quick      # smaller workloads

``--check`` compares the measured fast-path events/sec against the
committed ``benchmarks/output/BENCH_PERF.json`` baseline and exits
non-zero if any workload drops more than 25 % below it.  Set
``REPRO_PERF_SOFT=1`` to downgrade that failure to a warning (for
machines slower than the one that recorded the baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.engine import Simulator  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "output" / \
    "BENCH_PERF.json"

#: --check fails when a workload's fast-path events/sec falls more
#: than this fraction below the committed baseline.
REGRESSION_TOLERANCE = 0.25

#: The packet_pipeline fast-path events/sec committed with the engine
#: overhaul (BENCH_PERF.json at that commit), pinned here so later
#: regenerations of the JSON cannot silently lower the bar.
PR3_PACKET_PIPELINE_EVENTS_PER_SEC = 970_458

#: --check requires the vectorized_pipeline fast path to reach at
#: least this multiple of the pinned packet_pipeline baseline.
VECTORIZED_FLOOR = 2.5


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def event_chain(n: int, fast: bool) -> dict:
    """Dependent timer chains; measures raw dispatch throughput."""
    sim = Simulator()
    chains = 4
    per = n // chains

    class Chain:
        __slots__ = ("left", "delay")

        def __init__(self, index: int) -> None:
            self.left = per
            self.delay = 0.001 + index * 0.0001

        def fire(self) -> None:
            self.left -= 1
            if self.left:
                if fast:
                    sim.post(self.delay, self.fire)
                else:
                    sim.schedule(self.delay, self.fire)

    for index in range(chains):
        sim.schedule(0.001, Chain(index).fire)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {"events": sim.events_processed, "seconds": elapsed,
            "peak_heap": sim.peak_heap}


def packet_pipeline(n: int, fast: bool) -> dict:
    """Link-shaped load: service + delivery event per packet."""
    sim = Simulator()

    class Pkt:
        __slots__ = ("n",)

        def __init__(self, index: int) -> None:
            self.n = index

    delivered = []
    state = {"next": 0}

    def deliver(pkt: Pkt) -> None:
        delivered.append(pkt.n)

    def service_done(pkt: Pkt) -> None:
        if fast:
            sim.post(0.0005, deliver, pkt)
        else:
            sim.schedule(0.0005, lambda: deliver(pkt))
        send_next()

    def send_next() -> None:
        index = state["next"]
        if index >= n:
            return
        state["next"] = index + 1
        pkt = Pkt(index)
        if fast:
            sim.post(0.0001, service_done, pkt)
        else:
            sim.schedule(0.0001, lambda: service_done(pkt))

    for _ in range(8):
        send_next()
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert len(delivered) == n
    return {"events": sim.events_processed, "seconds": elapsed,
            "peak_heap": sim.peak_heap}


def timer_churn(n: int, fast: bool) -> dict:
    """RTO-style far-out timer reset on every simulated ACK."""
    sim = Simulator()
    state = {"i": 0, "rto": None}

    def on_rto() -> None:  # pragma: no cover - never fires
        pass

    def on_ack() -> None:
        if fast:
            if state["rto"] is not None:
                sim.reschedule(state["rto"], 60.0)
            else:
                state["rto"] = sim.schedule(60.0, on_rto)
        else:
            if state["rto"] is not None:
                state["rto"].cancel()
            state["rto"] = sim.schedule(60.0, on_rto)
        state["i"] += 1
        if state["i"] < n:
            sim.post(0.0001, on_ack)

    sim.post(0.0001, on_ack)
    start = time.perf_counter()
    sim.run(until=50.0)
    elapsed = time.perf_counter() - start
    return {"events": sim.events_processed, "seconds": elapsed,
            "peak_heap": sim.peak_heap,
            "heap_compactions": sim.heap_compactions}


def vectorized_pipeline(n: int, fast: bool) -> dict:
    """Batched link shape: burst completion times computed up front,
    one ``post_batch`` heap entry per burst, inline drain."""
    sim = Simulator()
    burst = 64
    bit_time = 12_000 / 1e8  # 1500-byte packet on a 100 Mbit/s link
    delivered = [0]

    def deliver(index: int) -> None:
        delivered[0] += 1

    state = {"sent": 0}

    def send_burst() -> None:
        sent = state["sent"]
        if sent >= n:
            return
        count = min(burst, n - sent)
        state["sent"] = sent + count
        now = sim.now
        times = [now + index * bit_time for index in range(1, count + 1)]
        if fast:
            sim.post_batch(times, deliver, list(range(sent, sent + count)))
        else:
            for index, when in enumerate(times):
                sim.post_at(when, deliver, sent + index)
        sim.post_at(times[-1], send_burst)

    send_burst()
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert delivered[0] == n
    return {"events": sim.events_processed, "seconds": elapsed,
            "peak_heap": sim.peak_heap,
            "batch_inline": sim.batch_inline}


WORKLOADS = {
    "event_chain": (event_chain, 400_000),
    "packet_pipeline": (packet_pipeline, 150_000),
    "timer_churn": (timer_churn, 150_000),
    "vectorized_pipeline": (vectorized_pipeline, 300_000),
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def best_of(func, n: int, fast: bool, reps: int) -> dict:
    """Run ``reps`` times, return the fastest rep (min seconds)."""
    best = None
    for _ in range(reps):
        result = func(n, fast)
        if best is None or result["seconds"] < best["seconds"]:
            best = result
    best["events_per_sec"] = round(best["events"] / best["seconds"])
    best["seconds"] = round(best["seconds"], 4)
    return best


def run_benchmarks(reps: int, quick: bool) -> dict:
    engine = {"reps": reps, "workloads": {}}
    for name, (func, n) in WORKLOADS.items():
        size = n // 10 if quick else n
        fast = best_of(func, size, True, reps)
        legacy = best_of(func, size, False, reps)
        ratio = fast["events_per_sec"] / legacy["events_per_sec"]
        entry = {
            "n": size,
            "fast": fast,
            "legacy": legacy,
            "fast_vs_legacy": round(ratio, 2),
        }
        if name == "vectorized_pipeline":
            entry["pr3_packet_pipeline_events_per_sec"] = \
                PR3_PACKET_PIPELINE_EVENTS_PER_SEC
            entry["speedup_vs_pr3"] = round(
                fast["events_per_sec"]
                / PR3_PACKET_PIPELINE_EVENTS_PER_SEC, 2)
        engine["workloads"][name] = entry
        print(f"{name:16s} fast {fast['events_per_sec']:>9,} ev/s   "
              f"legacy {legacy['events_per_sec']:>9,} ev/s   "
              f"({ratio:.2f}x, peak heap {fast['peak_heap']:,} vs "
              f"{legacy['peak_heap']:,})")
    return engine


def merge_output(path: Path, engine: dict) -> dict:
    """Update the engine section of BENCH_PERF.json, preserving the
    campaign section and the recorded seed baseline."""
    document = {}
    if path.exists():
        document = json.loads(path.read_text())
    document.setdefault("schema", "repro-bench-perf/1")
    document["python"] = sys.version.split()[0]
    document["platform"] = sys.platform
    document["engine"] = engine
    baseline = document.get("seed_baseline", {}).get("engine")
    if baseline:
        for name, entry in engine["workloads"].items():
            before = baseline.get(name, {}).get("events_per_sec")
            if before:
                entry["seed_baseline_events_per_sec"] = before
                entry["speedup_vs_seed"] = round(
                    entry["fast"]["events_per_sec"] / before, 2)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def check_regression(path: Path, engine: dict) -> int:
    """Gate: fast events/sec must stay within tolerance of baseline."""
    if not path.exists():
        print(f"no baseline at {path}; nothing to check against")
        return 0
    baseline = json.loads(path.read_text())
    committed = baseline.get("engine", {}).get("workloads", {})
    soft = os.environ.get("REPRO_PERF_SOFT") == "1"
    failures = []
    for name, entry in engine["workloads"].items():
        reference = committed.get(name, {}).get("fast", {}) \
            .get("events_per_sec")
        if not reference:
            continue
        measured = entry["fast"]["events_per_sec"]
        floor = reference * (1.0 - REGRESSION_TOLERANCE)
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(f"check {name:16s} {measured:>9,} ev/s vs baseline "
              f"{reference:,} (floor {floor:,.0f}): {verdict}")
        if measured < floor:
            failures.append(name)
    vectorized = engine["workloads"].get("vectorized_pipeline")
    if vectorized:
        measured = vectorized["fast"]["events_per_sec"]
        floor = VECTORIZED_FLOOR * PR3_PACKET_PIPELINE_EVENTS_PER_SEC
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(f"check vectorized floor: {measured:>9,} ev/s vs "
              f"{VECTORIZED_FLOOR}x pinned packet_pipeline baseline "
              f"(floor {floor:,.0f}): {verdict}")
        if measured < floor:
            failures.append("vectorized_pipeline (absolute floor)")
    if failures:
        message = (f"events/sec regression >{REGRESSION_TOLERANCE:.0%} "
                   f"in: {', '.join(failures)}")
        if soft:
            print(f"WARNING (REPRO_PERF_SOFT=1): {message}")
            return 0
        print(f"FAIL: {message}")
        print("Set REPRO_PERF_SOFT=1 to soft-fail on machines slower "
              "than the baseline recorder.")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per variant; the fastest rep "
                             "is reported (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="10x smaller workloads (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline "
                             "and exit 1 on a >25%% events/sec drop "
                             "(REPRO_PERF_SOFT=1 downgrades to a "
                             "warning); does not rewrite the baseline")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    engine = run_benchmarks(args.reps, args.quick)
    if args.check:
        return check_regression(args.output, engine)
    merge_output(args.output, engine)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
