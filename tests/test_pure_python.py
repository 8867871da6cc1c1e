"""The package is pure Python: running a campaign never imports numpy.

Runs in a fresh interpreter so nothing the test process imported (the
statistics tests cross-check against numpy) can mask an import made by
the package itself.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PROBE = """
import sys

import repro.cli
from repro.experiments.config import FlowSpec
from repro.experiments.runner import Campaign, CampaignSpec
from repro.wireless.profiles import TimeOfDay

spec = CampaignSpec(
    name="pure", specs=(FlowSpec.mptcp(carrier="att", paths=4),),
    sizes=(64 * 1024,), repetitions=1, periods=(TimeOfDay.NIGHT,))
results = Campaign(spec).run()
assert all(result.completed for result in results)
print("numpy" in sys.modules)
"""


def test_campaign_cell_never_imports_numpy():
    env = {**os.environ,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "False"
