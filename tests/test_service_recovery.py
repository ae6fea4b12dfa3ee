"""Proactive/clean recovery for the SQL and web services (§3.1.4 applied
beyond the file system).

Wrapper level: ``shutdown``/``restart`` with a ``clean_recovery_factory``
must rebuild the whole service onto a *fresh* backend from the abstract
state — including onto a different vendor, which is the N-version twist
the abstraction makes free.  End to end: a replica of the replicated
deployment whose wrappers have a ``clean_recovery_factory`` goes through
proactive recovery and rejoins with a brand-new backend instance serving
the same state.
"""

import pytest

from repro.bft.config import BftConfig
from repro.http.engine import ApacheLikeServer, NginxLikeServer
from repro.http.service import HTTP_SERVICE
from repro.http.wrapper import HttpConformanceWrapper
from repro.service.conformance import Driver, get_probe
from repro.service.deploy import ReplicatedDeployment
from repro.sql.engine import BTreeStoreEngine, HashStoreEngine
from repro.sql.service import SQL_SERVICE
from repro.sql.wrapper import SqlConformanceWrapper


def _clean_restart_roundtrip(wrapper, probe):
    """Drive the probe's workload, clean-restart, repair via
    fetch-and-check, and hand back the driver for post-checks."""
    driver = Driver(probe, wrapper)
    probe.workload(driver)
    before = driver.snapshot()
    assert wrapper.shutdown() > 0
    assert wrapper.restart() > 0
    dirty = {index: blob for index, blob in before.items()
             if wrapper.get_obj(index) != blob}
    assert dirty, "a clean restart must actually lose concrete state"
    wrapper.put_objs(dirty)
    assert driver.snapshot() == before
    return driver


def test_sql_clean_recovery_rebuilds_onto_fresh_engine():
    wrapper = SqlConformanceWrapper(HashStoreEngine(), array_size=32)
    wrapper.clean_recovery_factory = HashStoreEngine
    old_engine = wrapper.engine
    driver = _clean_restart_roundtrip(wrapper, get_probe("sql"))
    assert wrapper.engine is not old_engine
    driver.ok("insert", "users", (42, "post-recovery", 0))
    assert driver.ok("select", "users", 42,
                     read_only=True)[1] == (42, "post-recovery", 0)


def test_sql_clean_recovery_onto_different_vendor():
    """Rebuilding from abstract state does not care what engine the
    replica ran before the reboot."""
    wrapper = SqlConformanceWrapper(HashStoreEngine(), array_size=32)
    wrapper.clean_recovery_factory = BTreeStoreEngine
    driver = _clean_restart_roundtrip(wrapper, get_probe("sql"))
    assert isinstance(wrapper.engine, BTreeStoreEngine)
    assert driver.ok("scan", "users", read_only=True)[1] == (
        (1, "ada", 10), (2, "grace", 25))


def test_http_clean_recovery_rebuilds_onto_fresh_server():
    wrapper = HttpConformanceWrapper(ApacheLikeServer(boot_salt=3),
                                     array_size=32)
    wrapper.clean_recovery_factory = NginxLikeServer
    old_server = wrapper.server
    driver = _clean_restart_roundtrip(wrapper, get_probe("http"))
    assert wrapper.server is not old_server
    assert isinstance(wrapper.server, NginxLikeServer)
    # Nested resources survived the vendor swap, with their versions.
    assert driver.ok("GET", "/docs/c.txt", "",
                     read_only=True)[2] == b"gamma"
    assert driver.ok("GET", "/b.txt", "", read_only=True)[1] == '"v2"'
    driver.ok("PUT", "/docs/post.txt", b"post-recovery", "")


def _clean_recovery_group(definition, backend_classes):
    group = ReplicatedDeployment.build(
        definition, backend_classes,
        config=BftConfig(n=4, checkpoint_interval=8, reboot_delay=0.3,
                         view_change_timeout=2.0,
                         client_retry_timeout=1.0),
        array_size=64)
    for replica, backend_class in zip(group.cluster.replicas,
                                      backend_classes):
        # Each replica rebuilds onto a fresh backend of its own vendor.
        replica.state.upcalls.clean_recovery_factory = backend_class
    return group.cluster, group.client


def test_sql_proactive_recovery_e2e_with_engine_replacement():
    cluster, client = _clean_recovery_group(SQL_SERVICE,
                                            [HashStoreEngine] * 4)
    client.create_table("accounts", ("id", "owner", "balance"), "id")
    for i in range(8):
        client.insert("accounts", (i, "owner%d" % i, 100 * i))
    cluster.run(1.0)
    victim = cluster.replicas[2]
    old_engine = victim.state.upcalls.engine
    victim.recovery.start_recovery()
    cluster.run(30.0)
    assert not victim.recovery.recovering
    assert victim.state.upcalls.engine is not old_engine
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
    assert client.select("accounts", 5) == (5, "owner5", 500)
    client.insert("accounts", (99, "post", 1))
    assert client.row_count("accounts") == 9


def test_http_proactive_recovery_e2e_with_server_replacement():
    cluster, client = _clean_recovery_group(
        HTTP_SERVICE, [ApacheLikeServer, NginxLikeServer] * 2)
    client.mkcol("/site")
    client.put("/site/index.html", b"<h1>hello</h1>")
    client.put("/notes.txt", b"remember")
    client.put("/notes.txt", b"remember more")
    # Cross the checkpoint interval so a stable checkpoint certificate
    # exists for the recovering replica's fetch-and-check to verify
    # against (below it, recovery can only re-verify in place).
    for i in range(8):
        client.put(f"/site/page{i}.html", b"body %d" % i)
    cluster.run(1.0)
    victim = cluster.replicas[1]
    old_server = victim.state.upcalls.server
    victim.recovery.start_recovery()
    cluster.run(30.0)
    assert not victim.recovery.recovering
    assert victim.state.upcalls.server is not old_server
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
    etag, body = client.get("/site/index.html")
    assert body == b"<h1>hello</h1>"
    assert client.get("/notes.txt") == ('"v2"', b"remember more")
    client.put("/site/post.html", b"post-recovery")
