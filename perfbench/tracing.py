"""Spans and counters for the traced run, recorded from outside ``src/``.

:func:`install` wraps the public entry point of each layer -- the
cache's ``get``/``put``, one campaign cell, ``Testbed`` construction,
``Testbed.run`` and ``connection_metrics`` -- in a span, and reads the
layers' own counters (simulator events, link and endpoint statistics)
once per cell, after ``Testbed.run`` returns.  The row builders and
``write_csv`` are wrapped by the workload itself through
:meth:`Tracer.span`.  Spans stay in memory until the workload ends.

Under a process pool every worker is forked with the patched classes,
so it records its own spans; :func:`pool_factory` additionally gives
each worker its own cProfile session, dumped to ``trace_dir`` when the
worker exits, for the parent to merge.
"""

from __future__ import annotations

import cProfile
import json
import multiprocessing
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import util
from typing import Dict, Iterator, List, Optional

_LINK_DROPS = ("drops_overflow", "drops_loss", "drops_arq_residual",
               "drops_down", "drops_middlebox")


class Tracer:
    """In-memory spans (id, parent, cell, name, start, end, pid) and
    layer counters for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self, root: Optional[str] = None) -> None:
        #: Parent of this process's outermost spans: the span that was
        #: open in the parent process when a pool worker was forked.
        self.root = root
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self._stack: List[dict] = []
        self._endpoints: list = []
        self._serial = 0

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._serial += 1
        record = {"id": f"{self.pid}.{self._serial}",
                  "parent": parent["id"] if parent else self.root,
                  "cell": cell if cell is not None else (
                      parent["cell"] if parent else None),
                  "name": name, "pid": self.pid,
                  "start": time.perf_counter(), "end": None}
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def harvest(self, testbed) -> None:
        """Fold one finished testbed's layer counters into the totals."""
        counts = self.counts
        counts["sim.events"] += testbed.sim.events_processed
        for interface in testbed.network._interfaces.values():
            for link in (interface.up_link, interface.down_link):
                stats = link.stats
                counts["netsim.packets"] += stats.packets_offered
                counts["netsim.drops"] += sum(getattr(stats, name)
                                              for name in _LINK_DROPS)
        for endpoint in self._endpoints:
            counts["tcp.segments"] += endpoint.stats.data_packets_sent
            counts["tcp.retransmits"] += \
                endpoint.stats.retransmitted_packets
        self._endpoints.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points so they record into ``tracer``.

    Only the traced run calls this; the untraced run executes the
    program exactly as shipped.
    """
    from repro.cache.store import RunCache
    from repro.core.connection import MptcpConnection
    from repro.experiments import runner
    from repro.experiments.runner import RunDescriptor, descriptor_key
    from repro.tcp.endpoint import TcpEndpoint
    from repro.testbed import Testbed

    cache_get, cache_put = RunCache.get, RunCache.put
    cell_run = RunDescriptor.run
    testbed_init, testbed_run = Testbed.__init__, Testbed.run
    endpoint_init = TcpEndpoint.__init__
    allocate = MptcpConnection.allocate
    extract = runner.connection_metrics

    def get(self, key):
        with tracer.span("cache.get", cell=key):
            return cache_get(self, key)

    def put(self, result):
        key = descriptor_key(result.spec, result.size, result.seed,
                             result.period)
        with tracer.span("cache.put", cell=key):
            return cache_put(self, result)

    def run_cell(self, *args, **kwargs):
        with tracer.span("cell", cell=self.key):
            return cell_run(self, *args, **kwargs)

    def build_testbed(self, *args, **kwargs):
        with tracer.span("testbed.build"):
            testbed_init(self, *args, **kwargs)

    def run_testbed(self, *args, **kwargs):
        with tracer.span("testbed.run"):
            finished = testbed_run(self, *args, **kwargs)
        tracer.harvest(self)
        return finished

    def build_endpoint(self, *args, **kwargs):
        endpoint_init(self, *args, **kwargs)
        tracer._endpoints.append(self)

    def counted_allocate(self, subflow, max_bytes):
        allocation = allocate(self, subflow, max_bytes)
        tracer.counts["core.allocations"] += 1
        if allocation is not None:
            tracer.counts["core.allocations_useful"] += 1
        return allocation

    def connection_metrics(*args, **kwargs):
        with tracer.span("trace.extract"):
            return extract(*args, **kwargs)

    RunCache.get, RunCache.put = get, put
    RunDescriptor.run = run_cell
    Testbed.__init__, Testbed.run = build_testbed, run_testbed
    TcpEndpoint.__init__ = build_endpoint
    MptcpConnection.allocate = counted_allocate
    runner.connection_metrics = connection_metrics


# ----------------------------------------------------------------------
# Pool workers: one cProfile session per worker, merged by the parent
# ----------------------------------------------------------------------

def pool_factory(tracer: Tracer, trace_dir: str):
    """A ``_pool_factory`` replacement whose workers profile themselves.

    Workers are forked -- the program's own pool default on Linux, made
    explicit here -- so they inherit the patched classes and ``tracer``
    reaches them without pickling; each one starts from an empty copy.
    """

    def make_pool(max_workers: int, **kwargs) -> ProcessPoolExecutor:
        if kwargs:
            raise ValueError(f"unexpected pool options {sorted(kwargs)}")
        return ProcessPoolExecutor(max_workers=max_workers,
                                   mp_context=multiprocessing.get_context(
                                       "fork"),
                                   initializer=_worker_start,
                                   initargs=(tracer, trace_dir))

    return make_pool


def _worker_start(tracer: Tracer, trace_dir: str) -> None:
    sys.setprofile(None)  # drop the profiler inherited from the parent
    tracer.reset(root=tracer._stack[-1]["id"] if tracer._stack else None)
    profiler = cProfile.Profile()
    util.Finalize(None, _worker_stop,
                  args=(tracer, profiler, time.perf_counter(), trace_dir),
                  exitpriority=100)
    profiler.enable()


def _worker_stop(tracer: Tracer, profiler: cProfile.Profile,
                 started: float, trace_dir: str) -> None:
    profiler.disable()
    wall = time.perf_counter() - started
    stem = os.path.join(trace_dir, f"worker-{tracer.pid}")
    profiler.dump_stats(stem + ".prof")
    with open(stem + ".json", "w") as handle:
        json.dump({"wall_s": wall, "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, handle)


def collect_workers(trace_dir: str) -> Dict[str, object]:
    """The per-worker dumps :func:`_worker_stop` left in ``trace_dir``."""
    profiles, walls, spans = [], [], []
    counts: Counter = Counter()
    for name in sorted(os.listdir(trace_dir)):
        path = os.path.join(trace_dir, name)
        if name.startswith("worker-") and name.endswith(".prof"):
            profiles.append(path)
        elif name.startswith("worker-") and name.endswith(".json"):
            with open(path) as handle:
                dump = json.load(handle)
            walls.append(dump["wall_s"])
            spans.extend(dump["spans"])
            counts.update(dump["counts"])
    return {"profiles": profiles, "walls": walls, "spans": spans,
            "counts": counts}
