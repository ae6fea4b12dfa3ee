"""Table I — Andrew100: elapsed seconds per phase, BASEFS vs NFS-std.

The shape to reproduce is the overhead of the replicated service over
the implementation it reuses, per phase and in total.
"""

from benchmarks import paper
from benchmarks.conftest import run_once


def test_table1_andrew100(benchmark):
    record = run_once(benchmark, paper.table1)
    print(f"\n{record}")
    record.check()

    base = paper.andrew_basefs("100").result
    std = paper.andrew_std("100").result
    # Phase 5 dominates the run in both systems, as in the paper.
    assert base.phase_seconds[5] > 0.5 * base.total
    assert std.phase_seconds[5] > 0.5 * std.total
