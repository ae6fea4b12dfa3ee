"""End-to-end BASE-Thor: ThorClient transactions over the BFT cluster."""

import pytest

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment
from repro.thor.client import ThorClient, TransactionAborted
from repro.thor.objects import ObjectRecord
from repro.thor.orefs import make_oref
from repro.thor.pages import Page
from repro.thor.server import ThorServerConfig
from repro.thor.service import THOR_SERVICE

NUM_PAGES = 8


def load_db(server):
    for pagenum in range(4):
        server.load_page(Page(pagenum, {
            o: ObjectRecord("Cell", (pagenum * 10 + o,)).encode()
            for o in range(4)}))


def small_config():
    return BftConfig(n=4, checkpoint_interval=8, view_change_timeout=2.0,
                     client_retry_timeout=1.0)


@pytest.fixture
def base_thor():
    base = ReplicatedDeployment.build(
        THOR_SERVICE, num_pages=NUM_PAGES, db_loader=load_db,
        config=small_config(), base_config=BaseServiceConfig(branching=8),
        server_config=ThorServerConfig(cache_pages=2, mob_bytes=400))
    client = ThorClient(base.client, "alice")
    client.start_session()
    return base.cluster, base.client, client


def test_read_transaction(base_thor):
    cluster, transport, client = base_thor
    client.begin()
    record = client.read(make_oref(1, 2))
    assert record.fields == (12,)
    client.commit()


def test_write_transaction_visible_to_later_reads(base_thor):
    cluster, transport, client = base_thor
    oref = make_oref(0, 0)

    def bump(c):
        record = c.read(oref)
        c.write(oref, record.with_fields(record.fields[0] + 1))
    client.run_transaction(bump)
    client.drop_caches()
    client.begin()
    assert client.read(oref).fields == (1,)
    client.commit()


def test_two_clients_conflict_one_aborts(base_thor):
    cluster, transport, client = base_thor
    bob = ThorClient(transport, "bob")
    bob.start_session()
    oref = make_oref(0, 1)
    # Both read the same object...
    client.begin()
    bob.begin()
    v_alice = client.read(oref)
    v_bob = bob.read(oref)
    # ...bob commits a write first; alice's stale write must abort.
    bob.write(oref, v_bob.with_fields(100))
    bob.commit()
    client.write(oref, v_alice.with_fields(200))
    with pytest.raises(TransactionAborted):
        client.commit()


def test_invalidations_propagate_between_clients(base_thor):
    cluster, transport, client = base_thor
    bob = ThorClient(transport, "bob")
    bob.start_session()
    oref = make_oref(2, 0)
    client.begin()
    client.read(oref)       # alice caches page 2
    client.commit()
    bob.run_transaction(lambda c: c.write(
        oref, ObjectRecord("Cell", ("bob-was-here",))))
    # Alice has not contacted the server since, so her cached copy is
    # stale — Thor only delivers invalidations piggybacked on replies.
    # She may *read* the stale value, but a transaction that used it must
    # abort at commit (her invalid set lists the oref), and the abort
    # reply carries the invalidation that drops her stale copy.
    client.begin()
    stale = client.read(oref)
    assert stale.fields == (20,)
    client.write(oref, stale.with_fields("alice-overwrites"))
    with pytest.raises(TransactionAborted):
        client.commit()
    client.begin()
    assert client.read(oref).fields == ("bob-was-here",)
    client.commit()


def test_replicas_agree_after_checkpoints(base_thor):
    cluster, transport, client = base_thor
    for i in range(10):
        oref = make_oref(i % 4, i % 4)
        client.run_transaction(lambda c, oref=oref: c.write(
            oref, ObjectRecord("Cell", (i,))))
    cluster.run(2.0)
    assert max(r.last_stable for r in cluster.replicas) >= 8
    roots = {r.state.checkpoint_root(r.last_stable)
             for r in cluster.replicas}
    # All replicas that made the checkpoint agree byte-for-byte.
    assert len({r for r in roots if r is not None}) == 1


def test_recovery_restores_lost_mob_state(base_thor):
    """A recovering replica loses its MOB (volatile); state transfer must
    restore the pending committed writes from the other replicas."""
    cluster, transport, client = base_thor
    oref = make_oref(3, 1)
    client.run_transaction(lambda c: c.write(
        oref, ObjectRecord("Cell", ("committed-not-flushed",))))
    for i in range(8):
        client.run_transaction(lambda c, i=i: c.write(
            make_oref(0, i % 4), ObjectRecord("Cell", (i,))))
    cluster.run(1.0)
    victim = cluster.replicas[2]
    victim.config.reboot_delay = 0.5
    victim.recovery.start_recovery()
    cluster.run(30.0)
    assert not victim.recovery.recovering
    assert victim.state.upcalls.server.read_object(oref) == \
        ObjectRecord("Cell", ("committed-not-flushed",)).encode()


def test_thor_std_baseline_same_semantics():
    std = UnreplicatedDeployment.build(THOR_SERVICE, db_loader=load_db)
    client = ThorClient(std.client, "alice")
    client.start_session()
    oref = make_oref(1, 1)
    client.run_transaction(lambda c: c.write(
        oref, ObjectRecord("Cell", ("std",))))
    client.drop_caches()
    client.begin()
    assert client.read(oref).fields == ("std",)
    client.commit()
    assert std.backend.commits == 2


def test_client_cache_eviction_piggybacks_discards(base_thor):
    cluster, transport, client = base_thor
    client.cache_bytes = 200  # tiny: force evictions
    client.begin()
    for pagenum in range(4):
        client.read(make_oref(pagenum, 0))
    client.commit()
    # Evicted pages were reported; the directory no longer lists alice
    # for at least one early page on every replica.
    listed = [len(r.state.upcalls.server.directory.clients_caching(0))
              for r in cluster.replicas]
    assert all(n == listed[0] for n in listed)
