"""scipy stays off the import and simulation path.

scipy is imported only by the functions that call it (the Fig 3/4
closed forms, the link budget and the droop fault's BER), so importing
the package and running a fault-free chip never loads it.  The check
runs in a fresh interpreter: the test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests.cmp.test_golden import _diff
from tests.faults.test_golden_resilience import GOLDEN_PATH

ROOT = Path(__file__).parents[2]

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro, repro.cmp, repro.sweep
report = {"import": scipy_modules()}
repro.cmp.CmpSystem(repro.cmp.CmpConfig(num_nodes=16, network="fsoi")).run(300)
report["fault_free_run"] = scipy_modules()

from tests.faults.test_golden_resilience import compute
report["faulted_result"] = compute()
report["faulted_run_loads_scipy"] = "scipy.special" in sys.modules
print(json.dumps(report))
"""


def test_scipy_loads_only_for_a_faulted_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["import"] == []
    assert report["fault_free_run"] == []
    assert report["faulted_run_loads_scipy"]
    expected = json.loads(GOLDEN_PATH.read_text())
    assert not _diff(expected, report["faulted_result"])
