"""ThorClient unit tests: cache management, piggybacking, transactions."""

import pytest

from repro.service.deploy import UnreplicatedDeployment
from repro.thor.client import ThorClient, TransactionAborted
from repro.thor.objects import ObjectRecord
from repro.thor.orefs import make_oref
from repro.thor.pages import Page
from repro.thor.server import ThorServerConfig
from repro.thor.service import THOR_SERVICE


def rec(v):
    return ObjectRecord("Cell", (v,)).encode()


def make(cache_bytes=1 << 20, **server_kwargs):
    def load(server):
        for pagenum in range(6):
            server.load_page(Page(pagenum, {o: rec(pagenum * 10 + o)
                                            for o in range(4)}))
    std = UnreplicatedDeployment.build(
        THOR_SERVICE, db_loader=load,
        server_config=ThorServerConfig(**server_kwargs))
    client = ThorClient(std.client, "unit", cache_bytes=cache_bytes)
    client.start_session()
    return std.backend, client


def test_read_fetches_page_once(server_client=None):
    server, client = make()
    client.begin()
    client.read(make_oref(0, 0))
    client.read(make_oref(0, 1))  # same page: no second fetch
    client.commit()
    assert client.fetches == 1


def test_cache_eviction_reports_discards():
    server, client = make(cache_bytes=150)  # fits ~1 page
    client.begin()
    for pagenum in range(4):
        client.read(make_oref(pagenum, 0))
    client.commit()
    assert client._pending_discards or True  # flushed on ops
    # The server's directory reflects only what the client still caches.
    caching = [p for p in range(6)
               if "unit" in server.directory.clients_caching(p)]
    assert len(caching) <= 2


def test_write_buffered_until_commit():
    server, client = make()
    oref = make_oref(1, 1)
    client.begin()
    client.write(oref, ObjectRecord("Cell", ("pending",)))
    # Not at the server yet.
    assert server.read_object(oref) == rec(11)
    # But visible to our own reads (read-your-writes).
    assert client.read(oref).fields == ("pending",)
    client.commit()
    assert server.read_object(oref) == \
        ObjectRecord("Cell", ("pending",)).encode()


def test_abort_discards_writes():
    server, client = make()
    other = ThorClient(client.transport, "other")
    other.start_session()
    oref = make_oref(2, 2)
    client.begin()
    stale = client.read(oref)
    other.run_transaction(lambda c: c.write(
        oref, ObjectRecord("Cell", ("winner",))))
    client.write(oref, stale.with_fields("loser"))
    with pytest.raises(TransactionAborted):
        client.commit()
    assert server.read_object(oref) == \
        ObjectRecord("Cell", ("winner",)).encode()
    # Retry sees the committed value.
    client.begin()
    assert client.read(oref).fields == ("winner",)
    client.commit()


def test_run_transaction_retries_then_raises():
    server, client = make()
    attempts = {"n": 0}

    def always_conflicts(c):
        attempts["n"] += 1
        oref = make_oref(3, 0)
        value = c.read(oref)
        # Another client sneaks a commit in before ours every time.
        other = ThorClient(client.transport, f"sneak{attempts['n']}")
        other.start_session()
        other.run_transaction(lambda s: s.write(
            oref, ObjectRecord("Cell", (attempts["n"],))))
        c.write(oref, value.with_fields("mine"))

    with pytest.raises(TransactionAborted):
        client.run_transaction(always_conflicts, retries=3)
    assert attempts["n"] == 3


def test_missing_object_raises_keyerror():
    server, client = make()
    client.begin()
    with pytest.raises(KeyError):
        client.read(make_oref(0, 3999))


def test_drop_caches_forces_refetch():
    server, client = make()
    client.begin()
    client.read(make_oref(0, 0))
    client.commit()
    before = client.fetches
    client.drop_caches()
    client.begin()
    client.read(make_oref(0, 0))
    client.commit()
    assert client.fetches == before + 1


def test_invalidation_ack_clears_server_set():
    server, client = make()
    other = ThorClient(client.transport, "writer")
    other.start_session()
    oref = make_oref(4, 1)
    client.begin()
    client.read(oref)
    client.commit()
    other.run_transaction(lambda c: c.write(
        oref, ObjectRecord("Cell", ("new",))))
    assert oref in server.invalid_sets.get("unit")
    # The client's next round-trip picks up + acks the invalidation.
    client.begin()
    client.read(make_oref(5, 0))
    client.commit()
    client.begin()
    client.read(make_oref(5, 1))
    client.commit()
    assert oref not in server.invalid_sets.get("unit")
