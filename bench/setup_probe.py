"""Set-up probe for a library workload, run in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD

Imports wpdenoise and wpdenoise.cli, generates a 1 s input and makes
the workload's warm-up call(s). Prints {"gen_s": seconds spent
generating the input}, which the caller subtracts from the wall time.
"""

import json
import os
import sys
import time

import wpdenoise  # noqa: F401  (the import is part of the set-up cost)
import wpdenoise.cli  # noqa: F401

t0 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

inputs = workloads.warm_up_input(sys.argv[1])
gen_s = time.perf_counter() - t0
workloads.warm_up(sys.argv[1], inputs)
print(json.dumps({"gen_s": gen_s}))
