"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py            # everything (a few minutes)
    python3 perfbench/selftest.py Layers HostSpeed  # the fast checks

``Workloads`` runs each workload's traced run at the default seed and
requires correct outputs, ``bench.attributed_ratio`` >= 0.95 and
stable counters that equal their pins.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PACKAGE = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, BENCH_DIR)

from layers import LAYER_OF_COMPONENT, Attributor, layer_of_path  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


class Layers(unittest.TestCase):

    def test_every_module_maps_to_exactly_one_layer(self):
        modules = 0
        for folder, _, names in os.walk(PACKAGE):
            for name in names:
                if name.endswith(".py"):
                    modules += 1
                    layer_of_path(os.path.join(folder, name), PACKAGE)
        self.assertGreater(modules, 50)
        components = {name[:-3] if name.endswith(".py") else name
                      for name in os.listdir(PACKAGE)
                      if name != "__pycache__"}
        self.assertEqual(components, set(LAYER_OF_COMPONENT))

    def test_builtin_time_goes_to_the_calling_layer(self):
        engine = (os.path.join(PACKAGE, "sim", "engine.py"), 1, "run")
        link = (os.path.join(PACKAGE, "netsim", "link.py"), 1, "send")
        helper = (os.path.join("stdlib", "heapq.py"), 1, "push")
        builtin = ("~", 0, "<built-in method _heapq.heappush>")
        stats = {
            engine: (1, 1, 1.0, 5.0, {}),
            link: (1, 1, 2.0, 3.0, {engine: (1, 1, 2.0, 3.0)}),
            # the helper is called 3:1 from netsim and sim
            helper: (4, 4, 0.0, 2.0, {link: (3, 3, 0.0, 1.5),
                                      engine: (1, 1, 0.0, 0.5)}),
            builtin: (4, 4, 2.0, 2.0, {helper: (4, 4, 2.0, 2.0)}),
        }
        buckets = Attributor(PACKAGE, BENCH_DIR).attribute(stats)
        self.assertAlmostEqual(buckets["sim"], 1.5)
        self.assertAlmostEqual(buckets["netsim"], 3.5)
        self.assertAlmostEqual(sum(buckets.values()), 5.0)

    def test_refuses_to_run_without_the_program(self):
        scratch = os.path.join(ROOT, ".perfbench-work", "bare")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        try:
            done = _run("--workload", "fig9", "--seed", "1", "--seconds",
                        "1", "--trace", "0", cwd=scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class HostSpeed(unittest.TestCase):

    def test_kernel_is_fixed_and_leaves_the_program_alone(self):
        import hostspeed
        graph = hostspeed.Graph()
        self.assertEqual(hostspeed.kernel(graph), hostspeed.kernel(graph))
        self.assertNotIn("repro", sys.modules)

    def test_pool_workers_leave_their_samples(self):
        import tempfile
        import time

        import hostspeed
        work = os.path.join(ROOT, ".perfbench-work")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as dump_dir:
            make_pool = hostspeed.pool_factory(dump_dir)
            with make_pool(max_workers=2) as pool:
                list(pool.map(time.sleep, [0.35] * 2))
            dumps = hostspeed.collect_workers(dump_dir)
        self.assertEqual(len(dumps["spent"]), 2)
        self.assertGreaterEqual(len(dumps["samples"]), 2)
        self.assertTrue(all(seconds > 0 for seconds in dumps["samples"]))


class Workloads(unittest.TestCase):

    def check(self, workload):
        done = _run("--workload", workload, "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertNotIn("flagged", done.stdout)
        self.assertGreaterEqual(
            result["metrics"]["bench.attributed_ratio"]["value"], 0.95)

    def test_fig2(self):
        self.check("fig2")

    def test_fig9(self):
        self.check("fig9")

    def test_small_pool(self):
        self.check("small-pool")


if __name__ == "__main__":
    unittest.main()
