"""Set-up probe: a fresh interpreter imports flatcurve and builds one
workload's inputs from a seed, then exits.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import flatcurve  # noqa: F401  (the import is part of what is timed)
import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
