"""Fast-path differential battery: replies must be byte-identical with
the fast path on and off.

For every registered service, the same deterministic op script runs
through two replicated deployments — one with tentative execution and
the read-only optimization enabled (the fast path), one fully ordered —
and every reply must match byte for byte.  The fast path changes *when*
a replica replies (at prepared, or immediately for reads), never *what*
it computes, so any divergence is a correctness bug, not a tuning
artifact.

Services whose mutations execute under an agreed timestamp (NFS, Thor)
get their nondet propose/check pinned to a deterministic function of
the request id: the real proposal reads the simulated clock, and the
two deployments reach any given request at different simulated times
precisely because the fast path is faster.
"""

import pytest

from repro.base.nondet import ClockValue
from repro.bft.config import BftConfig
from repro.encoding.canonical import canonical, decanonical
from repro.service.deploy import ReplicatedDeployment
from repro.service.registry import get_service

SERVICES = ("nfs", "sql", "http", "thor")


def _pin_nondet(cluster) -> None:
    """Replace the wall-clock nondet agreement with a function of the
    batch's first request id — identical across deployments no matter
    how fast each one runs."""

    def propose(requests, seq):
        if not requests:
            return b""
        return ClockValue.encode(float(requests[0].request_id))

    def check(requests, seq, nondet):
        return nondet == propose(requests, seq)

    for replica in cluster.replicas:
        replica.state.propose_nondet = propose
        replica.state.check_nondet = check


def _service_options(name: str) -> dict:
    if name == "nfs":
        from repro.nfs.spec import AbstractSpecConfig
        return {"spec": AbstractSpecConfig(array_size=64)}
    if name == "thor":
        from repro.thor.objects import ObjectRecord
        from repro.thor.pages import Page

        def db_loader(server):
            for pagenum in range(4):
                server.load_page(Page(pagenum, {
                    o: ObjectRecord("Item", (pagenum * 10 + o,)).encode()
                    for o in range(4)}))

        return {"db_loader": db_loader, "num_pages": 8, "max_clients": 4}
    return {}


# -- per-service scripts ------------------------------------------------------------
#
# Each script is a generator of ``(op_tuple, read_only)`` receiving the
# decoded reply of the previous op (so ops can use returned handles).
# Scripts mix mutations with read-only ops: the read-only optimization
# only matters when reads interleave with ordered writes.


def _nfs_script():
    from repro.nfs.spec import ROOT_OID
    sattr = (0o644, 0, 0, -1, -1, -1)
    created = yield (("create", ROOT_OID, "a.txt", sattr), False)
    assert created[0] == 0, created
    oid = created[1]
    yield (("write", oid, 0, b"fast path bytes"), False)
    yield (("getattr", oid), True)
    other = yield (("create", ROOT_OID, "b.txt", sattr), False)
    yield (("write", other[1], 0, b"second file"), False)
    yield (("getattr", other[1]), True)
    yield (("write", oid, 4, b"PATCHED"), False)
    yield (("getattr", ROOT_OID), True)


def _sql_script():
    ok = yield (("create_table", "t", ("id", "val"), "id"), False)
    assert ok[0] == "OK", ok
    for i in range(5):
        yield (("insert", "t", (i, f"v{i}")), False)
    yield (("select", "t", 2), True)
    yield (("tables",), True)
    yield (("insert", "t", (9, "late")), False)
    yield (("select", "t", 9), True)


def _http_script():
    status = yield (("PUT", "/a.txt", b"alpha", ""), False)
    assert status[0] == 201, status
    yield (("PUT", "/b.txt", b"bravo", ""), False)
    yield (("GET", "/a.txt", ""), True)
    yield (("MKCOL", "/docs"), False)
    yield (("PUT", "/docs/c.html", b"<p>c</p>", ""), False)
    yield (("PROPFIND", "/docs"), True)
    yield (("DELETE", "/b.txt"), False)
    yield (("GET", "/a.txt", ""), True)


def _thor_script():
    # Commit timestamps must sit within the slack of the agreed receive
    # time, which the pinned nondet makes ``request_id`` seconds: op k
    # here is request k+1.
    from repro.thor.objects import ObjectRecord
    from repro.thor.orefs import make_oref

    def rec(value):
        return ObjectRecord("Item", (value,)).encode()

    yield (("start_session", "alice"), False)            # request 1
    yield (("start_session", "bob"), False)              # request 2
    yield (("fetch", "alice", 0, (), ()), False)         # request 3
    yield (("fetch", "bob", 0, (), ()), False)           # request 4
    oref = make_oref(0, 1)
    committed = yield (("commit", "alice", 5_000_001, (oref,),
                        ((oref, rec("alice-v1")),), (), ()), False)
    assert committed[0] == 0 and committed[1], committed
    yield (("fetch", "bob", 1, (), ()), False)           # request 6
    oref2 = make_oref(1, 2)
    yield (("commit", "bob", 7_000_001, (oref2,),
            ((oref2, rec("bob-v1")),), (), (oref,)), False)


SCRIPTS = {
    "nfs": _nfs_script,
    "sql": _sql_script,
    "http": _http_script,
    "thor": _thor_script,
}


def _run_script(name: str, fast: bool):
    """Run the service's script through one replicated deployment;
    returns (raw reply bytes per op, the client's accept-path counters)."""
    config = BftConfig(checkpoint_interval=8,
                       tentative_execution=fast,
                       read_only_optimization=fast)
    deployment = ReplicatedDeployment.build(
        get_service(name), config=config, seed=11,
        **_service_options(name))
    if deployment.replicas[0].state.upcalls.timestamps is not None:
        _pin_nondet(deployment.cluster)
    channel = deployment.channel
    replies = []
    script = SCRIPTS[name]()
    decoded = None
    while True:
        try:
            op, read_only = script.send(decoded) if replies else next(script)
        except StopIteration:
            break
        raw = channel.call(canonical(op), read_only=read_only)
        replies.append(raw)
        decoded = decanonical(raw)
    metrics = deployment.cluster.metrics
    paths = {p: metrics.counter_value(f"client.accept_{p}")
             for p in ("committed", "tentative", "read_only")}
    return replies, paths


@pytest.mark.parametrize("name", SERVICES)
def test_fast_path_replies_are_byte_identical(name):
    fast_replies, fast_paths = _run_script(name, fast=True)
    ordered_replies, ordered_paths = _run_script(name, fast=False)
    assert len(fast_replies) == len(ordered_replies) > 0
    for i, (fast_raw, ordered_raw) in enumerate(
            zip(fast_replies, ordered_replies)):
        assert fast_raw == ordered_raw, (name, i, fast_raw, ordered_raw)
    # The comparison must actually compare the two paths: the fast run
    # has to accept via tentative certificates (and read-only replies
    # when the script reads), the ordered run only via committed f+1.
    assert fast_paths["tentative"] > 0, fast_paths
    assert ordered_paths["tentative"] == ordered_paths["read_only"] == 0, \
        ordered_paths
    assert ordered_paths["committed"] == len(ordered_replies)


# Thor is absent: every Thor op mutates server state, so its script has
# no read-only traffic to route.
@pytest.mark.parametrize("name", ["nfs", "sql", "http"])
def test_read_only_ops_take_the_read_only_path(name):
    _, fast_paths = _run_script(name, fast=True)
    assert fast_paths["read_only"] > 0, fast_paths
