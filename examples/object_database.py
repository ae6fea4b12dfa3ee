#!/usr/bin/env python
"""BASE-Thor: replicating a nondeterministic object-oriented database
(paper §3.2).

All four replicas run the *same* Thor server implementation, but the
implementation is nondeterministic: page caches, modified-object buffers
and flush schedules drift apart per replica.  The abstract specification
(pages / validation queue / invalid sets / cached-pages directory) hides
all of it.  Demonstrates optimistic concurrency control between two
clients and a recovery that restores a replica's lost in-memory state.

Run:  python examples/object_database.py
"""

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.service.deploy import ReplicatedDeployment
from repro.thor.client import ThorClient, TransactionAborted
from repro.thor.objects import ObjectRecord
from repro.thor.orefs import make_oref
from repro.thor.pages import Page
from repro.thor.server import ThorServerConfig
from repro.thor.service import THOR_SERVICE

NUM_PAGES = 8


def load_bank(server):
    """A toy bank: accounts on page 0."""
    accounts = {i: ObjectRecord("Account", (f"acct{i}", 100)).encode()
                for i in range(4)}
    server.load_page(Page(0, accounts))


def main():
    base = ReplicatedDeployment.build(
        THOR_SERVICE, num_pages=NUM_PAGES, db_loader=load_bank,
        server_config=ThorServerConfig(cache_pages=2, mob_bytes=400),
        config=BftConfig(n=4, checkpoint_interval=8, reboot_delay=0.5,
                         view_change_timeout=2.0, client_retry_timeout=1.0),
        base_config=BaseServiceConfig(branching=16))
    cluster, transport = base.cluster, base.client

    alice = ThorClient(transport, "alice")
    bob = ThorClient(transport, "bob")
    alice.start_session()
    bob.start_session()

    def transfer(client, src, dst, amount):
        a = client.read(make_oref(0, src))
        b = client.read(make_oref(0, dst))
        client.write(make_oref(0, src),
                     a.with_fields(a.fields[0], a.fields[1] - amount))
        client.write(make_oref(0, dst),
                     b.with_fields(b.fields[0], b.fields[1] + amount))

    print("alice transfers 30 from acct0 to acct1 (atomic transaction)...")
    alice.run_transaction(lambda c: transfer(c, 0, 1, 30))

    print("bob reads the balances...")
    bob.begin()
    balances = [bob.read(make_oref(0, i)).fields for i in range(4)]
    bob.commit()
    for name, balance in balances:
        print(f"  {name}: {balance}")

    print("\nconflicting transactions: both touch acct2 concurrently...")
    alice.begin()
    bob.begin()
    a_view = alice.read(make_oref(0, 2))
    b_view = bob.read(make_oref(0, 2))
    bob.write(make_oref(0, 2), b_view.with_fields("acct2",
                                                  b_view.fields[1] + 5))
    bob.commit()
    alice.write(make_oref(0, 2), a_view.with_fields("acct2", 0))
    try:
        alice.commit()
        raise SystemExit("alice should have aborted!")
    except TransactionAborted:
        print("  bob committed first; alice's stale transaction aborted "
              "(optimistic concurrency control)")

    print("\nper-replica concrete nondeterminism (same code, different "
          "schedules):")
    for r in cluster.replicas:
        server = r.state.upcalls.server
        print(f"  {r.node_id}: MOB entries={len(server.mob)}, disk "
              f"writes={server.disk.writes}, cache pages={len(server.cache)}")

    # Roll past a checkpoint, then recover a replica: its MOB (volatile)
    # is lost in the restart and restored by state transfer.
    for i in range(8):
        alice.run_transaction(lambda c, i=i: c.write(
            make_oref(1, i % 4), ObjectRecord("Scratch", (i,))))
    cluster.run(1.0)
    victim = cluster.replicas[1]
    print(f"\nrecovering {victim.node_id} (loses cache/MOB/VQ in reboot)...")
    victim.recovery.start_recovery()
    cluster.run(30.0)
    rec = victim.recovery.records[-1]
    print(f"  fetched {rec.objects_fetched} abstract objects during "
          f"fetch-and-check")

    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1, "abstract states diverged!"
    print("  all replicas byte-identical again; demo OK")


if __name__ == "__main__":
    main()
