"""One benchmark process's set-up, timed by run.py from spawn to the line printed here.

It covers what a fresh process pays before its first timed op: importing
dp1alpha (which builds the lemma bank), the cached curve enumerations, and
the workload's warm-up op, whose output is checked.  Prints the
time.monotonic() reading at that point, then "ok" or the problem found.

    python3 perfbench/setup_probe.py classify-mix
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports dp1alpha)
from dp1alpha import picard  # noqa: E402

picard.enumerate_minus_one_classes()
picard.enumerate_conic_classes()
workload = workloads.WORKLOADS[sys.argv[1]](workloads.DEFAULT_SEED)
op = workload.warmup()
status = workloads.checked(workload, op, workload.call(op)) or "ok"
print(time.monotonic(), status, flush=True)
