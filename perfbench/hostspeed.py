"""How fast the host runs, sampled while a workload iteration runs.

On a shared host the interpreter's speed drifts by tens of percent
within a minute -- without any stolen time, so the program's CPU time
drifts with its wall time and neither is steady from run to run.
:class:`Sampler` interrupts the iteration every :data:`INTERVAL_S`
seconds (``SIGALRM``, main thread) and measures the CPU time of one
pass of :func:`kernel`, a fixed pure-Python workload.  The passes are
interleaved with the program's own work at a finer grain than the
drift, so their median tells how fast the host ran during this
iteration; ``run.py`` scales the iteration's timings by
``reference / median`` to what they would read at the reference speed
pinned in ``references.json``.  The handler's time is subtracted from
the iteration's wall and CPU time.

The kernel walks a graph of small slotted objects with dict lookups and
float arithmetic, the traffic that dominates the simulator, and never
imports the program, so a change to the program cannot change it.  Its
graph takes a few MiB, so ``peak_rss_mb`` is read from the warm-up
iteration, which does not sample.  When the host slows, the kernel
slows somewhat more than the program does, so the scaling overshoots a
little; it still halves the spread of a workload's medians over ten
runs.  Whatever process runs the cells samples: the workload process
when it runs them serially, else each pool worker
(:func:`pool_factory`), since a pass that ran beside the busy workers
would measure the scheduler.

    python3 perfbench/hostspeed.py      # sample an idle host for 10 s
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util
from statistics import median
from typing import Dict, List

#: Seconds between passes; steps per pass (about 1.5 ms); nodes
#: in the kernel's object graph (a few MiB, so a pass misses the caches
#: as the program does: a cache-resident kernel tracks the host's speed
#: on the program's own work about half as well).
INTERVAL_S = 0.1
STEPS = 6000
NODES = 100_000


class _Node:
    __slots__ = ("key", "value", "next")


class Graph:
    """A random walk over :data:`NODES` slotted objects and a dict of
    half as many keys, built from a fixed seed."""

    def __init__(self, nodes: int = NODES) -> None:
        draw = random.Random(2013)
        self.nodes = [_Node() for _ in range(nodes)]
        for key, node in enumerate(self.nodes):
            node.key = key
            node.value = float(key)
        for node in self.nodes:
            node.next = self.nodes[draw.randrange(nodes)]
        self.table = {key * 7919: key for key in range(nodes // 2)}
        self.modulus = nodes * 7919 // 2


def kernel(graph: Graph, steps: int = STEPS) -> float:
    """One deterministic pass: pointer chasing, float and dict work."""
    node, table, modulus = graph.nodes[0], graph.table, graph.modulus
    total = 0.0
    for _ in range(steps):
        node = node.next
        total += node.value * 1.0001
        total += table.get(node.key * 7919 % modulus, 0)
    return total


class Sampler:
    """Times one kernel pass every :data:`INTERVAL_S` while started."""

    def __init__(self) -> None:
        self.graph = Graph()
        self.samples: List[float] = []  # CPU seconds per pass
        self.spent = 0.0                # wall seconds inside the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        cpu = time.thread_time()
        kernel(self.graph)
        self.samples.append(time.thread_time() - cpu)
        self.spent += time.perf_counter() - entered

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_s(self) -> float:
        return median(self.samples)


def pool_factory(dump_dir: str):
    """A ``_pool_factory`` replacement whose workers sample themselves
    and leave their samples in ``dump_dir`` when they exit.  Workers
    are forked, the program's own pool default on Linux."""

    def make_pool(max_workers: int, **kwargs) -> ProcessPoolExecutor:
        if kwargs:
            raise ValueError(f"unexpected pool options {sorted(kwargs)}")
        return ProcessPoolExecutor(max_workers=max_workers,
                                   mp_context=multiprocessing.get_context(
                                       "fork"),
                                   initializer=_worker_start,
                                   initargs=(dump_dir,))

    return make_pool


def _worker_start(dump_dir: str) -> None:
    entered = time.perf_counter()
    sampler = Sampler()
    sampler.spent = time.perf_counter() - entered  # delays this worker too
    util.Finalize(None, _worker_stop, args=(sampler, dump_dir),
                  exitpriority=100)
    sampler.start()


def _worker_stop(sampler: Sampler, dump_dir: str) -> None:
    sampler.stop()
    path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump({"samples": sampler.samples, "spent": sampler.spent},
                  handle)


def collect_workers(dump_dir: str) -> Dict[str, list]:
    """Every pass and each worker's handler time, from ``dump_dir``."""
    samples, spent = [], []
    for name in sorted(os.listdir(dump_dir)):
        with open(os.path.join(dump_dir, name)) as handle:
            dump = json.load(handle)
        samples.extend(dump["samples"])
        spent.append(dump["spent"])
    return {"samples": samples, "spent": spent}


def main() -> int:
    sampler = Sampler()
    sampler.start()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        time.sleep(0.01)
    sampler.stop()
    print(f"{len(sampler.samples)} passes, median {sampler.median_s():.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
