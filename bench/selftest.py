"""Self-test of the checks: every planted fault must fail the run that should catch it.

    python3 bench/selftest.py

For each fault in plants.CAUGHT_BY this runs the workload once with the
fault planted, in its own process, and requires exit code 1, a result
line with "correct": false, and at least one failed operation. Exits 0
only if every planted fault was caught. Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from plants import CAUGHT_BY

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    missed = []
    for plant, workload in CAUGHT_BY.items():
        cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", "0", "--plant", plant]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = proc.returncode == 1 and result.get("correct") is False and result.get("failed", 0) >= 1
        print(f"{plant:<18} on {workload:<12} exit {proc.returncode}, "
              f"failed {result.get('failed')}/{result.get('attempted')}: {'caught' if caught else 'MISSED'}")
        if not caught:
            missed.append(plant)
    if missed:
        print(f"checks missed planted faults: {', '.join(missed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
