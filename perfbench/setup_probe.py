"""Print the set-up time of one workload, measured in this fresh process:
importing rsir1d, building the case catalog, the workload's cases and
their initial states.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()
import bootstrap  # noqa: E402

bootstrap.use_checkout_source()
import workloads  # noqa: E402
from rsir1d import cases  # noqa: E402

cases.case_names()
for item in workloads.build(sys.argv[1], int(sys.argv[2])):
    workloads.initial_cons(item.case)
print(time.perf_counter() - t0)
