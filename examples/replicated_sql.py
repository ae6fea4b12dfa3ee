#!/usr/bin/env python
"""BASE-SQL: the paper's named future work (§6), working.

"As future work, it would be interesting to apply the BASE technique to a
relational database service by taking advantage of the ODBC standard."

Two "off-the-shelf" engines with the same ODBC-ish interface but
different concrete behaviour (a hash store scanning in insertion order, a
b-tree store scanning in key order, different internal row ids) run
behind one replicated relational service.  The §6 mapping library
(`repro.base.mappings`) supplies the abstract-array bookkeeping, so the
whole conformance wrapper is ~200 statements.

Run:  python examples/replicated_sql.py
"""

from repro.bft.config import BftConfig
from repro.service.deploy import ReplicatedDeployment
from repro.sql.service import SQL_SERVICE
from repro.sql.engine import BTreeStoreEngine, HashStoreEngine, SqlEngineError


def main():
    group = ReplicatedDeployment.build(
        SQL_SERVICE, [HashStoreEngine, BTreeStoreEngine,
                      HashStoreEngine, BTreeStoreEngine],
        config=BftConfig(n=4, checkpoint_interval=8, reboot_delay=0.3))
    cluster, db = group.cluster, group.client
    print("replicas run:", ", ".join(
        type(r.state.upcalls.engine).vendor for r in cluster.replicas))

    print("\ncreating a table and inserting out of key order...")
    db.create_table("accounts", ("id", "owner", "balance"), "id")
    for row in [(30, "carol", 250), (10, "alice", 100), (20, "bob", 175)]:
        db.insert("accounts", row)
    print("  scan (spec: canonical key order, identical on every replica):")
    for row in db.scan("accounts"):
        print("   ", row)

    print("\nthe engines' native scan orders actually differ:")
    for r in cluster.replicas[:2]:
        engine = r.state.upcalls.engine
        native = [row[0] for row in engine.scan("accounts")]
        print(f"  {engine.vendor:11s} native order: {native}")

    print("\ndeterministic errors across heterogeneous engines:")
    try:
        db.insert("accounts", (10, "dupe", 0))
    except SqlEngineError as err:
        print(f"  duplicate key -> SQLSTATE {err.code}")
    try:
        db.select("accounts", 99)
    except SqlEngineError as err:
        print(f"  missing row   -> SQLSTATE {err.code}")

    print("\nupdating, deleting, then recovering a replica...")
    db.update("accounts", 20, (20, "bob", 9000))
    db.delete("accounts", 30)
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    cluster.run(20.0)
    assert not victim.recovery.recovering
    db.insert("accounts", (40, "dave", 5))
    cluster.run(2.0)

    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1, "abstract states diverged!"
    print("  final table:", db.scan("accounts"))
    print("  all four replicas byte-identical; demo OK")


if __name__ == "__main__":
    main()
