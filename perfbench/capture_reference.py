#!/usr/bin/env python3
"""Capture the reference tables of the deterministic workloads.

    python3 perfbench/capture_reference.py

Runs kgr-sweep and jitter-mi once through the CLI of the checkout and copies
their table CSVs to ``perfbench/reference/<workload>/``.  The committed
references come from the seed commit; re-capture only when a change is meant
to alter these outputs, and say so where the change is recorded.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

DETERMINISTIC = ("kgr-sweep", "jitter-mi")


def main() -> int:
    env = run.child_env()
    for workload in DETERMINISTIC:
        (args, _), = run.workload_plan(workload, 0, None, None)
        target = run.checks.REFERENCE_DIR / workload
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            out = Path(tmp) / "out"
            cmd = [sys.executable, "-m", "wfhsim.cli", *args, "--out", str(out)]
            subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for table in sorted(out.glob("*.csv")):
                shutil.copy(table, target / table.name)
                print(target / table.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
