"""Table II — Andrew500: the scaled-up run (state no longer cache-resident
in the paper; 3x the work in this reproduction).  The paper's overhead
lands slightly above Andrew100's.
"""

from benchmarks import paper
from benchmarks.conftest import run_once


def test_table2_andrew500(benchmark):
    record = run_once(benchmark, paper.table2)
    print(f"\n{record}")
    record.check()

    # Larger state does not change who wins or the rough factor.
    total_pct = record.measured()["total"]
    a100_pct = paper.table1().measured()["total"]
    assert abs(total_pct - a100_pct) < 15, (
        f"A500 overhead {total_pct:.0f}% wildly different from "
        f"A100 {a100_pct:.0f}%")
    # And it really is a bigger run.
    std = paper.andrew_std("500").result
    a100_std = paper.andrew_std("100").result
    assert std.total > 2 * a100_std.total
