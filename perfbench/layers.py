"""Layer map and exclusive-time attribution of cProfile data.

A *layer* is one package under ``src/repro`` (``sim``, ``netsim``,
``tcp``, ``core``, ...).  Every function cProfile saw is charged to
exactly one bucket:

* a function defined in a repo module goes to that module's layer;
* ``concurrent.futures.wait`` and ``multiprocessing.Queue.get`` go to
  ``wait``: the parent blocked on pool results, or a worker idle for
  its next task;
* a function of this benchmark's own files goes to ``bench``;
* any other function (builtins, the standard library, numpy) is
  charged to whoever called it.  cProfile keeps the exclusive time of
  every caller->callee edge, so the first hop is exact; further hops
  through non-repo frames are split by the callers' share of
  inclusive time;
* a non-repo function with no recorded caller is pool machinery
  (charged to ``experiments``, the harness that owns the pool) when it
  lives in ``concurrent.futures`` or ``multiprocessing``, and ``bench``
  otherwise.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Tuple

#: First path component under ``src/repro`` -> layer.  Packages are
#: their own layer; the two top-level modules are folded into the
#: layer they serve (``repro/__init__.py`` only re-exports the testbed).
LAYER_OF_COMPONENT = {
    "app": "app",
    "cache": "cache",
    "cli": "cli",
    "core": "core",
    "experiments": "experiments",
    "middlebox": "middlebox",
    "models": "models",
    "netsim": "netsim",
    "obs": "obs",
    "perf": "perf",
    "sim": "sim",
    "tcp": "tcp",
    "testbed": "testbed",
    "trace": "trace",
    "wireless": "wireless",
    "world": "world",
    "__init__": "testbed",
}

WAIT = "wait"
BENCH = "bench"

#: (file suffix, function name) of the blocking calls charged to WAIT.
_WAIT_FUNCTIONS = (
    (os.path.join("concurrent", "futures", "_base.py"), "wait"),
    (os.path.join("multiprocessing", "queues.py"), "get"),
)
_POOL_PACKAGES = (os.path.join("concurrent", "futures") + os.sep,
                  "multiprocessing" + os.sep)

Func = Tuple[str, int, str]


def layer_of_path(path: str, package_root: str) -> str:
    """Layer of a ``.py`` file under ``package_root`` (``src/repro``).

    Raises ``KeyError`` for a file no layer claims, so a new package
    must be added to :data:`LAYER_OF_COMPONENT` before it is measured.
    """
    relative = os.path.relpath(path, package_root)
    component = relative.split(os.sep, 1)[0]
    if component.endswith(".py"):
        component = component[:-3]
    return LAYER_OF_COMPONENT[component]


class Attributor:
    """Charges cProfile exclusive time to layers (see module doc)."""

    def __init__(self, package_root: str, bench_root: str) -> None:
        self.package_root = os.path.realpath(package_root) + os.sep
        self.bench_root = os.path.realpath(bench_root) + os.sep
        self._direct: Dict[str, str] = {}

    def direct_bucket(self, func: Func) -> str:
        """The bucket a function belongs to by itself, or ``""``."""
        filename, _, name = func
        for suffix, wait_name in _WAIT_FUNCTIONS:
            if name == wait_name and filename.endswith(suffix):
                return WAIT
        cached = self._direct.get(filename)
        if cached is None:
            real = os.path.realpath(filename) if filename != "~" else ""
            if real.startswith(self.package_root):
                cached = layer_of_path(real, self.package_root)
            elif real.startswith(self.bench_root):
                cached = BENCH
            else:
                cached = ""
            self._direct[filename] = cached
        return cached

    def _root_bucket(self, func: Func) -> str:
        filename = func[0]
        if any(package in filename for package in _POOL_PACKAGES):
            return "experiments"
        return BENCH

    def attribute(self, stats: dict) -> Dict[str, float]:
        """Seconds per bucket for one ``pstats.Stats.stats`` mapping."""
        memo: Dict[Func, Dict[str, float]] = {}

        def upward(func: Func, visiting: frozenset) -> Dict[str, float]:
            """Where time charged to ``func``'s frame ends up."""
            bucket = self.direct_bucket(func)
            if bucket:
                return {bucket: 1.0}
            if func in memo:
                return memo[func]
            callers = {caller: edge for caller, edge
                       in stats.get(func, (0, 0, 0, 0, {}))[4].items()
                       if caller != func and caller not in visiting}
            total = sum(edge[3] for edge in callers.values())
            if total <= 0:
                share = {self._root_bucket(func): 1.0}
            else:
                share = defaultdict(float)
                for caller, edge in callers.items():
                    for name, part in upward(caller,
                                             visiting | {func}).items():
                        share[name] += part * edge[3] / total
            memo[func] = dict(share)
            return memo[func]

        totals: Dict[str, float] = defaultdict(float)
        for func, (_, _, own, _, callers) in stats.items():
            bucket = self.direct_bucket(func)
            if bucket:
                totals[bucket] += own
                continue
            callers = {caller: edge for caller, edge in callers.items()
                       if caller != func}
            total = sum(edge[2] for edge in callers.values())
            if total <= 0:
                for name, part in upward(func, frozenset()).items():
                    totals[name] += own * part
                continue
            for caller, edge in callers.items():
                for name, part in upward(caller,
                                         frozenset({func})).items():
                    totals[name] += own * part * edge[2] / total
        return dict(totals)
