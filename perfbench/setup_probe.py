"""Time one set-up of a workload in a fresh interpreter: import ``airalloc``
and build the workload's inputs.  Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - T0)
