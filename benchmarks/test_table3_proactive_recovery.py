"""Table III — Andrew with proactive recovery.

Every replica rejuvenates during the run, yet recovery costs only a few
points over plain BASEFS: recoveries are staggered and the service keeps
running on the other three replicas.
"""

from benchmarks import paper
from benchmarks.conftest import run_once


def test_table3_proactive_recovery(benchmark):
    record = run_once(benchmark, paper.table3)
    print(f"\n{record}")
    record.check()

    # Every replica rejuvenated at least once, at both scales.
    for scale in ("100", "500"):
        pr = paper.andrew_basefs(scale, recovery=True)
        replicas_recovered = {rec.replica_id for rec in paper.recoveries(pr)}
        assert len(replicas_recovered) == 4
