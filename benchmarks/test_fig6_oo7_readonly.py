"""Figure 6 — OO7 cold read-only traversals: Thor vs BASE-Thor.

T1 is a full composite-graph DFS, T6 visits root atomic parts only;
commit is a small fraction of both.
"""

from benchmarks import paper
from benchmarks.conftest import run_once


def test_fig6_oo7_readonly(benchmark):
    record = run_once(benchmark, paper.fig6)
    print(f"\n{record}")
    record.check()

    base, std = paper.oo7("base"), paper.oo7("std")
    measured = record.measured()
    # T6 pays less than T1 (less locality -> disk dilutes the protocol).
    assert measured["T6 (roots only)"] < measured["T1 (full DFS)"]
    # Commit time is a small fraction of read-only traversals.
    for name in ("T1", "T6"):
        for run in (std, base):
            r = run.results[name]
            assert r.commit_seconds < 0.15 * r.total
    # T6 touches far fewer objects/pages than T1.
    assert base.results["T6"].atomic_visits < \
        0.25 * base.results["T1"].atomic_visits
    assert base.results["T6"].fetches < base.results["T1"].fetches
