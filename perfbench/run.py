"""The repository benchmark: regenerate paper artifacts and time them.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2 [--seed 2013] [--seconds 30]
                             [--trace 0|1] [--pin]

Workloads (their reasons are recorded in BENCHMARK.json):

* ``fig2``       -- the baseline matrix's 64 KB to 2 MB columns (21
  cells) computed cold into a fresh run cache, then fig3 and tab2
  served from it; three CSVs.
* ``fig9``       -- the large-flow matrix's 4 MB column (8 cells).
* ``small-pool`` -- the small-flow matrix's 8 KB/64 KB columns over all
  four periods, 8 repetitions (512 cells) on a 2-worker pool.

Each iteration runs in a fresh interpreter (``workload.py``) with a
fresh cache directory, no run log and every ``REPRO_*`` variable
removed.  With ``--trace 0`` a warm-up iteration (checked, not timed)
is followed by iterations until ``--seconds`` is used up (at least
five), and their medians are reported as the end-to-end metrics;
``setup_s`` is the median over the same interpreters.  Each timed
iteration's timings are first scaled to the reference host speed
pinned in ``references.json`` by the speed the host ran at during that
iteration (``hostspeed.py``); the raw figures are printed beside them.
With ``--trace 1`` one untraced and one traced iteration run, and the
traced one gives the per-layer metrics (``workload.py``, ``layers.py``,
``tracing.py``).

Every output is checked: each CSV's sha256 and each cell's result
digest must equal the pins in ``references.json`` for the default seed
2013.  For another seed, the first iteration of the first run in this
checkout becomes the reference for every later one.  A run with any
failed or mismatching cell prints ``"correct": false``, no metrics, and
exits with status 1.  ``--pin`` rewrites the workload's pins from a
run at the default seed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PACKAGE = os.path.join(ROOT, "src", "repro")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

WORKLOADS = ("fig2", "fig9", "small-pool")
DEFAULT_SEED = 2013
MIN_ITERATIONS = 5
#: Iterations continue while the next one would end within this share
#: of ``--seconds`` (a run is never cut short mid-iteration).
OVERRUN = 1.1
#: A run must end within 180 s; iterations still going by then are killed.
RUN_DEADLINE_S = 170

#: Counters that must repeat exactly for one seed and program version.
STABLE_COUNTS = ("sim.events", "netsim.packets", "netsim.drops",
                 "tcp.retransmits", "core.allocations", "cache.hits")

def scrubbed_environment():
    """The parent environment minus every ``REPRO_*`` knob (returned
    separately so the context line can record what was removed)."""
    env, removed = {}, {}
    for name, value in os.environ.items():
        (removed if name.startswith("REPRO_") else env)[name] = value
    env["TMPDIR"] = WORK
    return env, removed


class Runner:
    """Launches workload iterations and checks their outputs."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.env, self.removed = scrubbed_environment()
        self.run_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.serial = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def launch(self, mode: str) -> dict:
        self.serial += 1
        work_dir = os.path.join(self.run_dir, f"{self.serial:03d}-{mode}")
        os.makedirs(work_dir)
        out = os.path.join(work_dir, "out.json")
        command = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--mode", mode, "--work-dir", work_dir, "--out", out]
        launched = time.monotonic()
        # Its own session, so a timeout also stops the pool workers.
        process = subprocess.Popen(
            command + ["--launched", repr(launched)], env=self.env,
            cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            status = process.wait(timeout=max(1.0, self.deadline - launched))
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        if status != 0:
            raise RuntimeError(f"{mode} iteration exited with status "
                               f"{status}")
        with open(out) as handle:
            result = json.load(handle)
        if mode == "traced":
            keep = os.path.join(WORK, "traces",
                                f"{self.workload}-seed{self.seed}")
            shutil.rmtree(keep, ignore_errors=True)
            shutil.copytree(os.path.join(work_dir, "trace"), keep,
                            ignore=shutil.ignore_patterns("worker-*"))
            result["trace_dir"] = os.path.relpath(keep, ROOT)
        shutil.rmtree(work_dir)
        return result

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def reference_for(workload: str, seed: int, first: dict) -> dict:
    """Pinned outputs for the default seed; for any other seed, the
    outputs recorded by the first run of that seed in this checkout."""
    if seed == DEFAULT_SEED:
        return load_references()["workloads"].get(workload, {})
    if "error" in first:
        return {}
    path = os.path.join(WORK, "records", f"{workload}-{seed}.json")
    if not os.path.exists(path):
        with open(path, "w") as handle:
            json.dump({"csv": first.get("csv", {}),
                       "cells": first.get("digests", {})}, handle)
    with open(path) as handle:
        return json.load(handle)


def count_failures(iteration: dict, reference: dict) -> int:
    """Failed cells of one iteration: every cell of an artifact whose
    CSV mismatches or that raised, else each mismatching cell digest."""
    failed = 0
    for artifact, cells in iteration["cells"].items():
        digests = iteration.get("digests", {}).get(artifact, [])
        pinned = reference.get("cells", {}).get(artifact)
        csv_ok = all(iteration.get("csv", {}).get(name) == sha
                     for name, sha in reference.get("csv", {}).items()
                     if name.startswith(artifact + "_"))
        if "error" in iteration or len(digests) != cells or not csv_ok \
                or pinned is None:
            failed += cells
        else:
            failed += sum(1 for got, want in zip(digests, pinned)
                          if got != want)
    return failed


def context(runner: Runner, sample: dict, why: str) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = os.cpu_count()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for folder, dirs, names in os.walk(PACKAGE):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                source.update(os.path.relpath(path, PACKAGE).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {"workload": runner.workload, "why": why, "seed": runner.seed,
            "cells": sample["cells"],
            "computed_cells": sample["computed_cells"],
            "payload_bytes": sample["payload_bytes"],
            "nproc": affinity, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit,
            "src_sha256": source.hexdigest(),
            "scrubbed_env": runner.removed}


def measure(runner: Runner, seconds: float) -> list:
    """One warm-up iteration, then untraced iterations until
    ``seconds`` is used up; returns every iteration, the warm-up first
    (its outputs are checked and its memory is read; it runs without
    the host-speed sampler, whose graph would count as memory)."""
    warmup = runner.launch("plain")
    iterations = []
    started = time.monotonic()
    while True:
        iterations.append(runner.launch("timed"))
        elapsed = time.monotonic() - started
        if len(iterations) >= MIN_ITERATIONS and \
                elapsed * (1 + 1 / len(iterations)) > seconds * OVERRUN:
            break
    return [warmup] + iterations


def end_to_end(warmup, iterations, reference_pass_s: float) -> dict:
    """Medians over the timed iterations, each timing scaled from the
    host speed of its own iteration to the reference speed; memory from
    the warm-up."""
    scales = [reference_pass_s / it["host_pass_s"] for it in iterations]

    def scaled(name):
        return median([it[name] * scale
                       for it, scale in zip(iterations, scales)])

    return {
        "wall_s": scaled("wall_s"),
        "cpu_s": scaled("cpu_s"),
        "setup_s": scaled("setup_s"),
        "peak_rss_mb": warmup["peak_rss_mb"],
        "sim_mb_per_s": median([it["payload_bytes"] / 2 ** 20
                                / (it["wall_s"] * scale)
                                for it, scale in zip(iterations, scales)]),
    }


def check_counts(workload: str, seed: int, layers: dict) -> list:
    """Stable counters that moved against the pins (default seed) or
    against the first traced run of this seed in this checkout."""
    counts = {name: layers[name] for name in STABLE_COUNTS}
    if seed == DEFAULT_SEED:
        reference = load_references()["workloads"].get(
            workload, {}).get("counts", {})
    else:
        path = os.path.join(WORK, "records", f"{workload}-{seed}.counts")
        if not os.path.exists(path):
            with open(path, "w") as handle:
                json.dump(counts, handle)
        with open(path) as handle:
            reference = json.load(handle)
    return [f"{name}: {reference.get(name)} -> {value}"
            for name, value in counts.items()
            if reference.get(name) != value]


def pin(workload: str) -> int:
    """Record the default seed's CSV hashes, cell digests and counters."""
    runner = Runner(workload, DEFAULT_SEED)
    try:
        plain = runner.launch("plain")
        traced = runner.launch("traced")
    finally:
        runner.close()
    for result in (plain, traced):
        if "error" in result:
            print(result["error"], file=sys.stderr)
            return 1
    if (plain["csv"], plain["digests"]) != (traced["csv"], traced["digests"]):
        print("traced and untraced outputs differ; nothing pinned",
              file=sys.stderr)
        return 1
    references = load_references()
    references["workloads"][workload] = {
        "csv": plain["csv"], "cells": plain["digests"],
        "counts": {name: traced["layers"][name] for name in STABLE_COUNTS}}
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {workload} at seed {DEFAULT_SEED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate paper artifacts and time them.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite this workload's pins (default seed)")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so a running iteration's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no program to measure: {os.path.relpath(PACKAGE, ROOT)} "
              f"is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    if args.pin:
        return pin(args.workload)

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            iterations = [runner.launch("plain"), runner.launch("traced")]
        else:
            iterations = measure(runner, args.seconds)
    finally:
        runner.close()

    reference = reference_for(args.workload, args.seed, iterations[0])
    attempted = sum(sum(it["cells"].values()) for it in iterations)
    failed = sum(count_failures(it, reference) for it in iterations)
    why = {entry["name"]: entry["why"]
           for entry in declared["workloads"]}[args.workload]
    print("context " + json.dumps(context(runner, iterations[0], why),
                                  sort_keys=True))
    first = "untraced, traced" if args.trace else "warm-up first"
    print(f"iterations {len(iterations)} ({first}): raw wall_s "
          + " ".join(f"{it['wall_s']:.3f}" for it in iterations))
    if not args.trace:
        print("host_pass_s " + " ".join(f"{it['host_pass_s']:.6f}"
                                        for it in iterations[1:]))
    print(f"failed_ratio {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} cells)")
    metrics = {}
    if failed == 0:
        if args.trace:
            plain, traced = iterations
            metrics = dict(traced["layers"])
            metrics["bench.trace_overhead_ratio"] = (
                traced["wall_s"] / plain["wall_s"] - 1)
            for line in check_counts(args.workload, args.seed, metrics):
                print(f"flagged count moved {line}")
            if metrics["bench.attributed_ratio"] < 0.95:
                print("flagged bench.attributed_ratio below 0.95")
            print(f"trace files {traced['trace_dir']}")
            section = "per_layer"
        else:
            metrics = end_to_end(iterations[0], iterations[1:],
                                 load_references()["host_pass_s"])
            section = "end_to_end"
        units = {entry["name"]: entry["unit"] for entry in declared[section]}
        for name, unit in units.items():
            print(f"metric {name} {metrics[name]!r} {unit}")
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
