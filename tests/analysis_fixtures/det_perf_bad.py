"""DET-PERF fixture: perf_counter outside the reporting allowlist.

The per-rule test checks this file twice: under a protocol path it must
fire, under an allowlisted reporting path (faultlab/explorer.py) it must
not.
"""

import time


def measure(run):
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0
