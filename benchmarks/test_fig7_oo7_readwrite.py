"""Figure 7 — OO7 cold read-write traversals: Thor vs BASE-Thor.

T2a updates the root atomic part of each composite, T2b *every* atomic
part; their traversals match T1's and the difference is commit time,
where BASE adds checkpoint maintenance.
"""

from benchmarks import paper
from benchmarks.conftest import run_once


def test_fig7_oo7_readwrite(benchmark):
    record = run_once(benchmark, paper.fig7)
    print(f"\n{record}")
    record.check()

    base, std = paper.oo7("base"), paper.oo7("std")
    # Traversal times of T1/T2a/T2b are almost identical (same DFS).
    t1 = std.results["T1"].traversal_seconds
    for name in ("T2a", "T2b"):
        assert abs(std.results[name].traversal_seconds - t1) < 0.35 * t1
    # T2a modifies one part per composite; T2b every part.
    assert base.results["T2b"].updates > 10 * base.results["T2a"].updates
    assert base.results["T2b"].updates == base.results["T2b"].atomic_visits
    # Commit is a significant fraction of T2b but not of T2a, and BASE
    # increases T2b's commit cost markedly (checkpoint maintenance).
    assert std.results["T2b"].commit_seconds > 0.25 * std.results["T2b"].total
    assert base.results["T2a"].commit_seconds < 0.2 * base.results["T2a"].total
    assert base.results["T2b"].commit_seconds > \
        1.2 * std.results["T2b"].commit_seconds
