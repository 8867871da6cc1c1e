"""Campaign wall-clock benchmark: fig02/fig09-style measurement runs.

Times complete :class:`Measurement` runs (testbed build, simulation,
metric extraction) for the shapes the paper's figures lean on:

* fig02-style: baseline-size downloads on MP-2 and single-path WiFi.
* fig09-style: large flows (16 and 32 MB) where bufferbloat, SACK
  recovery and the coupled controller dominate the hot path.

Two configurations run back to back in the same process:

* **after** -- the default metrics-only streaming capture.
* **legacy-mode** -- ``capture_level="full"``: a ``PacketRecord`` per
  packet and batch trace analysis.  This understates the true
  pre-overhaul cost (the engine core, the wire-size cache and the O(1)
  receiver bookkeeping cannot be toggled off); the ``seed_baseline``
  section of BENCH_PERF.json records measurements taken at the
  pre-overhaul commit itself.

Every run asserts the download time against the known-good value:
every capture level must be byte-identical.

Usage::

    python benchmarks/bench_perf_campaign.py            # run + update JSON
    python benchmarks/bench_perf_campaign.py --quick    # 16 MB flows only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.config import FlowSpec  # noqa: E402
from repro.experiments.runner import Measurement  # noqa: E402
from repro.sim.rng import derive_seed  # noqa: E402
from repro.wireless.profiles import TimeOfDay  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "output" / \
    "BENCH_PERF.json"

MB = 1024 * 1024


def _workloads(quick: bool):
    mp2 = FlowSpec.mptcp(carrier="att", controller="coupled")
    wifi = FlowSpec.single_path("wifi")
    loads = [
        ("fig02-mp2-2MB", mp2, 2 * MB),
        ("fig02-spwifi-2MB", wifi, 2 * MB),
        ("fig09-mp2-16MB", mp2, 16 * MB),
        ("fig09-spwifi-16MB", wifi, 16 * MB),
    ]
    if not quick:
        loads.append(("fig09-mp2-32MB", mp2, 32 * MB))
    return loads


def run_one(spec: FlowSpec, size: int, level: str) -> dict:
    seed = derive_seed(2013, f"bench-perf:{spec.identity}:{size}")
    measurement = Measurement(spec, size, seed=seed,
                              period=TimeOfDay.AFTERNOON,
                              capture_level=level)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    result = measurement.run()
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    return {"wall": wall, "cpu": cpu,
            "download_time": result.download_time,
            "completed": result.completed}


def bench(reps: int, quick: bool) -> dict:
    campaign = {"reps": reps, "workloads": {}, "totals": {}}
    totals = {"after": 0.0, "legacy_mode": 0.0}
    for tag, spec, size in _workloads(quick):
        entry = {}
        oracle = None
        # Both configurations run back to back per workload; the
        # fastest of ``reps`` runs is kept for each.
        for mode, level in (("after", "metrics-only"),
                            ("legacy_mode", "full")):
            best = None
            for _ in range(reps):
                sample = run_one(spec, size, level)
                if not sample["completed"]:
                    raise AssertionError(f"{tag}: transfer incomplete")
                if oracle is None:
                    oracle = sample["download_time"]
                elif sample["download_time"] != oracle:
                    raise AssertionError(
                        f"{tag}: determinism violation -- "
                        f"{sample['download_time']!r} != {oracle!r}")
                if best is None or sample["wall"] < best["wall"]:
                    best = sample
            entry[mode] = {"wall_s": round(best["wall"], 3),
                           "cpu_s": round(best["cpu"], 3)}
            totals[mode] += best["wall"]
        entry["download_time"] = oracle
        reduction = 1.0 - (entry["after"]["wall_s"]
                           / entry["legacy_mode"]["wall_s"])
        entry["wall_reduction_vs_legacy_mode"] = round(reduction, 3)
        campaign["workloads"][tag] = entry
        print(f"{tag:20s} after {entry['after']['wall_s']:6.3f}s   "
              f"legacy-mode {entry['legacy_mode']['wall_s']:6.3f}s   "
              f"(-{reduction:.1%})  dl={oracle}")
    campaign["totals"] = {
        "after_wall_s": round(totals["after"], 3),
        "legacy_mode_wall_s": round(totals["legacy_mode"], 3),
        "wall_reduction_vs_legacy_mode": round(
            1.0 - totals["after"] / totals["legacy_mode"], 3),
    }
    print(f"{'total':20s} after {totals['after']:6.3f}s   "
          f"legacy-mode {totals['legacy_mode']:6.3f}s   "
          f"(-{campaign['totals']['wall_reduction_vs_legacy_mode']:.1%})")
    return campaign


def merge_output(path: Path, campaign: dict) -> None:
    document = {}
    if path.exists():
        document = json.loads(path.read_text())
    document.setdefault("schema", "repro-bench-perf/1")
    document["python"] = sys.version.split()[0]
    document["platform"] = sys.platform
    document["campaign"] = campaign
    baseline = document.get("seed_baseline", {}).get("campaign")
    if baseline:
        before_total = baseline.get("total_wall_s")
        after_total = campaign["totals"]["after_wall_s"]
        if before_total:
            campaign["totals"]["seed_baseline_total_wall_s"] = before_total
            campaign["totals"]["wall_reduction_vs_seed"] = round(
                1.0 - after_total / before_total, 3)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per configuration; fastest "
                             "rep kept (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="skip the 32 MB flow (CI smoke)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    campaign = bench(args.reps, args.quick)
    merge_output(args.output, campaign)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
