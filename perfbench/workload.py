"""One iteration of one workload, in a fresh interpreter.

``run.py`` launches this file once per iteration and reads the JSON it
writes to ``--out``.  Modes:

* ``plain``  -- run the workload untraced and time it: the program
  exactly as shipped.
* ``timed``  -- the same, sampling the host's speed alongside
  (``hostspeed.py``).
* ``traced`` -- run it under cProfile with spans and layer counters
  (see ``tracing.py``) and report the per-layer figures.

``setup_s`` runs from ``--launched`` (``time.monotonic()`` read by the
parent just before it started this interpreter; the clock is
system-wide) to the first call into the campaign runner.  ``wall_s``
runs from that call to the last artifact CSV written and hashed; the
per-cell digests are taken afterwards, outside the timed interval.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Worker processes per workload (the pool workload uses both cores of
#: the 2-core reference box; the others run serially, like ``repro``).
JOBS = {"fig2": 1, "fig9": 1, "small-pool": 2}


@dataclasses.dataclass(frozen=True)
class Artifact:
    """One regenerated CSV: a campaign and the rows it reports."""

    name: str
    spec: object        # repro.experiments.CampaignSpec
    csv_name: str
    rows: object        # results -> (headers, rows)


def artifacts(workload: str, seed: int):
    """The artifacts one workload regenerates, in execution order."""
    from repro.experiments import scenarios as s
    from repro.wireless.profiles import TimeOfDay

    if workload == "fig2":
        # `repro all` order: fig2 computes the baseline matrix cold,
        # fig3 and tab2 are then served from the same run cache.  The
        # 16 MB column (most of the full matrix's wall) is left out, so
        # one iteration is short enough for a run to take a median of
        # many; fig9 covers the large flows.
        spec = dataclasses.replace(
            s.baseline_campaign(repetitions=1, base_seed=seed),
            sizes=(64 * s.KB, 512 * s.KB, 2 * s.MB))
        return [
            Artifact("fig2", spec, "fig2_download_time.csv",
                     lambda r: s.download_time_rows(
                         r, label_by_carrier=True)),
            Artifact("fig3", spec, "fig3_cellular_share.csv",
                     lambda r: s.traffic_share_rows(
                         r, label_by_carrier=True)),
            Artifact("tab2", spec, "tab2_path_characteristics.csv",
                     s.path_characteristics_rows),
        ]
    if workload == "fig9":
        spec = dataclasses.replace(
            s.large_flows_campaign(repetitions=1, base_seed=seed),
            sizes=(4 * s.MB,))
        return [Artifact("fig9", spec, "fig9_download_time.csv",
                         s.download_time_rows)]
    if workload == "small-pool":
        spec = dataclasses.replace(
            s.small_flows_campaign(repetitions=8,
                                   periods=tuple(TimeOfDay),
                                   base_seed=seed),
            sizes=(8 * s.KB, 64 * s.KB))
        return [Artifact("fig4", spec, "fig4_download_time.csv",
                         s.download_time_rows)]
    raise ValueError(f"unknown workload {workload!r}")


def cell_digest(result) -> str:
    """Digest of one cell's full-fidelity serialized result."""
    from repro.experiments.storage import result_to_dict
    text = json.dumps(result_to_dict(result, max_samples=None),
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "timed", "traced"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from repro.cache import CostModel, RunCache
    from repro.experiments import Campaign, execute_plan, write_csv

    jobs = JOBS[args.workload]
    chosen = artifacts(args.workload, args.seed)
    plans = [Campaign(artifact.spec).plan() for artifact in chosen]
    csv_dir = os.path.join(args.work_dir, "csv")
    os.makedirs(csv_dir, exist_ok=True)
    cache_dir = os.path.join(args.work_dir, "cache")
    cache = RunCache(cache_dir)
    cost_model = CostModel()
    unique = {descriptor.key: descriptor.size
              for plan in plans for descriptor in plan}
    out = {"cells": {artifact.name: len(plan)
                     for artifact, plan in zip(chosen, plans)},
           "computed_cells": len(unique),
           "payload_bytes": sum(unique.values())}
    out["setup_s"] = time.monotonic() - args.launched

    tracer = profiler = None
    trace_dir = os.path.join(args.work_dir, "trace")
    if args.mode == "traced":
        import cProfile

        from repro.experiments import parallel
        from tracing import Tracer, install, pool_factory
        os.makedirs(trace_dir, exist_ok=True)
        tracer = Tracer()
        install(tracer)
        parallel._pool_factory = pool_factory(tracer, trace_dir)
        profiler = cProfile.Profile()

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    # Whatever process runs the cells samples the host: this one, or
    # each pool worker.
    sampler = None
    sample_dir = os.path.join(args.work_dir, "hostspeed")
    if args.mode == "timed":
        import hostspeed
        from repro.experiments import parallel
        if jobs == 1:
            sampler = hostspeed.Sampler()
        else:
            os.makedirs(sample_dir)
            parallel._pool_factory = hostspeed.pool_factory(sample_dir)

    results, csv_sha = {}, {}
    cpu_before = _cpu_s()
    started = time.perf_counter()
    if sampler is not None:
        sampler.start()
    if profiler is not None:
        profiler.enable()
    try:
        for artifact, plan in zip(chosen, plans):
            with span(f"artifact.{artifact.name}"):
                results[artifact.name] = execute_plan(
                    plan, jobs=jobs, cache=cache, cost_model=cost_model)
                with span("reduce.rows"):
                    headers, rows = artifact.rows(results[artifact.name])
                path = os.path.join(csv_dir, artifact.csv_name)
                with span("reduce.write_csv"):
                    write_csv(path, headers, rows)
                with open(path, "rb") as handle:
                    csv_sha[artifact.csv_name] = hashlib.sha256(
                        handle.read()).hexdigest()
    except Exception:  # a failed cell fails the run; report, never time
        traceback.print_exc()
        out["error"] = traceback.format_exc(limit=3)
    finally:
        if profiler is not None:
            profiler.disable()
        if sampler is not None:
            sampler.stop()
    out["wall_s"] = time.perf_counter() - started
    out["cpu_s"] = _cpu_s() - cpu_before
    if args.mode == "timed":
        # The passes are the benchmark's, not the program's: take the
        # handler time out (for a pool, each worker's delayed its own
        # cells, so the wall loses their mean).
        if jobs == 1:
            samples, spent = sampler.samples, [sampler.spent]
        else:
            workers = hostspeed.collect_workers(sample_dir)
            samples, spent = workers["samples"], workers["spent"]
        out["wall_s"] -= sum(spent) / len(spent)
        out["cpu_s"] -= sum(spent)
        out["host_pass_s"] = median(samples)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["cache"] = {"hits": cache.hits, "misses": cache.misses}
    cache.close()
    out["csv"] = csv_sha
    out["digests"] = {name: [cell_digest(result) for result in cells]
                      for name, cells in results.items()}
    if tracer is not None and "error" not in out:
        out["layers"] = _layer_report(out, tracer, profiler, trace_dir,
                                      cache_dir, plans, results, jobs)
    _write(args.out, out)
    return 0


def _layer_report(out, tracer, profiler, trace_dir, cache_dir, plans,
                  results, jobs) -> dict:
    """Per-layer figures of the traced iteration; also writes the
    spans and the merged profile next to them."""
    import pstats

    from layers import BENCH, WAIT, Attributor
    from repro.experiments.parallel import execute_chunk
    from tracing import collect_workers

    workers = collect_workers(trace_dir)
    stats = pstats.Stats(profiler)
    for path in workers["profiles"]:
        stats.add(path)
    stats.dump_stats(os.path.join(trace_dir, "profile.prof"))
    buckets = Attributor(os.path.join(SRC, "repro"),
                         BENCH_DIR).attribute(stats.stats)
    spans = tracer.spans + workers["spans"]
    with open(os.path.join(trace_dir, "spans.jsonl"), "w") as handle:
        for record in sorted(spans, key=lambda record: record["start"]):
            handle.write(json.dumps(record) + "\n")

    def total(*names):
        return sum(record["end"] - record["start"] for record in spans
                   if record["name"] in names)

    counts = tracer.counts + workers["counts"]
    profiled = out["wall_s"] + sum(workers["walls"])
    busy_base = sum(workers["walls"]) if jobs > 1 else out["wall_s"]
    ipc_bytes = 0
    if jobs > 1:
        # What crossed the pool: one pickled task and one pickled
        # result list per cell (chunk size 1), re-pickled afterwards.
        pooled = {record["cell"] for record in workers["spans"]
                  if record["name"] == "cell"}
        for plan, name in zip(plans, results):
            for descriptor, result in zip(plan, results[name]):
                if descriptor.key in pooled:
                    pooled.discard(descriptor.key)
                    ipc_bytes += len(pickle.dumps(
                        (execute_chunk, ([descriptor],), {})))
                    ipc_bytes += len(pickle.dumps([result]))
    allocations = counts["core.allocations"]
    report = {f"{layer}.self_s": buckets.get(layer, 0.0)
              for layer in ("sim", "netsim", "wireless", "tcp", "core",
                            "middlebox", "trace", "app", "experiments")}
    report.update({
        "sim.events": counts["sim.events"],
        "netsim.packets": counts["netsim.packets"],
        "netsim.drops": counts["netsim.drops"],
        "tcp.segments": counts["tcp.segments"],
        "tcp.retransmits": counts["tcp.retransmits"],
        "core.allocations": allocations,
        "core.alloc_useful_ratio": (
            counts["core.allocations_useful"] / allocations
            if allocations else 0.0),
        "trace.extract_s": total("trace.extract"),
        "testbed.build_s": total("testbed.build"),
        "experiments.reduce_s": total("reduce.rows", "reduce.write_csv"),
        "experiments.wait_s": buckets.get(WAIT, 0.0),
        "experiments.worker_busy_ratio": total("cell") / busy_base,
        "experiments.ipc_bytes": ipc_bytes,
        "cache.get_s": total("cache.get"),
        "cache.put_s": total("cache.put"),
        "cache.hits": out["cache"]["hits"],
        "cache.misses": out["cache"]["misses"],
        "cache.bytes_written": _tree_bytes(cache_dir),
        "bench.attributed_ratio": (
            sum(seconds for name, seconds in buckets.items()
                if name != BENCH) / profiled),
    })
    with open(os.path.join(trace_dir, "layers.json"), "w") as handle:
        json.dump({"buckets_s": buckets, "profiled_s": profiled,
                   "worker_walls_s": workers["walls"], "metrics": report},
                  handle, indent=1, sort_keys=True)
    return report


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main())
