"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/probe.py {words,orbits,lattice}

Prints the seconds taken by `import extweyl` plus the workload's set-up
(first cold build, system construction and box forms), scaled to the
reference speed of clock.py; the benchmark's own input generation is
not included.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import clock  # noqa: E402
from run import import_package, make_workload  # noqa: E402

clock.sample()  # let the interpreter specialise the kernel first
before = clock.sample()
t0 = time.perf_counter()
import_package()
make_workload(sys.argv[1], workdir="").setup()
elapsed = time.perf_counter() - t0
print(elapsed * clock.scale(before, clock.sample()))
