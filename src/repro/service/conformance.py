"""Cross-service conformance battery.

Every service built on the kernel must honor the same contract, no
matter which off-the-shelf implementation sits underneath:

- **round-trip** — the abstract state captured by ``get_obj`` rebuilds a
  fresh wrapper (over a *different* vendor) through ``put_objs`` into an
  identical abstract state;
- **determinism** — heterogeneous wrapper pairs that execute the same
  op sequence expose identical abstract states (the paper's §2.4 core
  obligation for opportunistic N-version programming);
- **read-only gating** — a mutating op issued on the BFT read-only path
  draws the service's deterministic rejection and leaves the abstract
  state untouched;
- **malformed handling** — undecodable blobs, unknown op tags, and
  ill-typed arguments from a (possibly Byzantine) client draw identical
  deterministic error envelopes from every replica, never an exception;
- **restart survival** — ``shutdown``/``restart`` persist the
  conformance representation; the state-transfer delta repairs whatever
  the reboot lost and the service keeps executing;
- **transaction framing** — the kernel's prepare/commit meta-ops frame a
  sub-op without changing its reply or its effect, and a refused,
  aborted or abandoned prepare changes nothing.

The edge ladder's staleness contract is audited over real edge tiers by
FaultLab's ``staleness_contract`` invariant, not here.

One :class:`ServiceProbe` per registered service supplies the minimum
service-specific knowledge: how to build a heterogeneous wrapper pair,
a deterministic workload, and what an error envelope looks like.  The
battery itself is service-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.base.nondet import ClockValue
from repro.encoding.canonical import canonical, decanonical
from repro.service.kernel import AbstractService


class Driver:
    """Issues wire ops against one wrapper with a deterministic clock.

    The clock advances one second per issued op, and (for services whose
    wrapper agrees on ``timestamps``) each op carries the matching
    :class:`ClockValue` nondet payload — the stand-in for the BFT
    propose/check agreement, identical across a wrapper pair.
    """

    def __init__(self, probe: "ServiceProbe", wrapper: AbstractService):
        self.probe = probe
        self.wrapper = wrapper
        self.clock = 0.0

    def _nondet(self) -> bytes:
        if self.wrapper.timestamps is None:
            return b""
        return ClockValue.encode(self.clock)

    def raw(self, op_blob: bytes, read_only: bool = False) -> bytes:
        self.clock += 1.0
        return self.wrapper.execute(op_blob, "conformance-client",
                                    self._nondet(), read_only=read_only)

    def op(self, *parts, read_only: bool = False) -> tuple:
        return decanonical(self.raw(canonical(parts), read_only=read_only))

    def ok(self, *parts, read_only: bool = False) -> tuple:
        result = self.op(*parts, read_only=read_only)
        assert not self.probe.is_error(result), \
            f"{self.probe.name}: {parts[0]} failed: {result!r}"
        return result

    def next_agreed_us(self) -> int:
        """The agreed timestamp the *next* op will execute under (for
        workloads that must pass a timestamp argument)."""
        return int((self.clock + 1.0) * 1_000_000)

    def snapshot(self) -> Dict[int, bytes]:
        return {i: self.wrapper.get_obj(i)
                for i in range(self.wrapper.num_objects)}


@dataclass
class ServiceProbe:
    """Service-specific inputs to the service-agnostic battery."""

    name: str
    #: Build one wrapper; variants 0 and 1 must wrap *different*
    #: concrete implementations (different vendor, or — for Thor, which
    #: has one nondeterministic implementation — different seeds and
    #: sizing so the concrete states diverge).
    make_wrapper: Callable[[int], AbstractService]
    #: A deterministic workload driving every op class of the service.
    workload: Callable[[Driver], None]
    #: Reply envelope predicate: True for the service's error replies.
    is_error: Callable[[tuple], bool]
    #: A mutating op (wire tuple) for the read-only-gating check.
    mutating_op: tuple = ()
    #: An op that must succeed after a shutdown/restart round-trip.
    post_restart_op: tuple = ()
    #: A read-only op that must *succeed* on the read-only path (None
    #: for services with no read-only ops, e.g. Thor).
    read_only_op: Optional[tuple] = None
    #: Known ops with missing/ill-typed arguments.
    malformed_ops: List[tuple] = field(default_factory=list)
    #: Op tags outside the abstract specification.
    unknown_ops: List[tuple] = field(
        default_factory=lambda: [("__no_such_op__",), (123,)])

    def driver(self, variant: int) -> Driver:
        return Driver(self, self.make_wrapper(variant))

    def pair(self) -> Tuple[Driver, Driver]:
        return self.driver(0), self.driver(1)


# -- the battery -------------------------------------------------------------------


def check_round_trip(probe: ServiceProbe) -> None:
    """get_obj on a worked wrapper rebuilds a fresh heterogeneous
    wrapper through put_objs into an identical abstract state."""
    worked, fresh = probe.pair()
    probe.workload(worked)
    state = worked.snapshot()
    fresh.wrapper.put_objs(dict(state))
    assert fresh.snapshot() == state, \
        f"{probe.name}: put_objs(get_obj(*)) is not the identity"


def check_abstract_determinism(probe: ServiceProbe) -> None:
    """The same op sequence leaves heterogeneous wrappers in identical
    abstract states."""
    first, second = probe.pair()
    probe.workload(first)
    probe.workload(second)
    assert first.snapshot() == second.snapshot(), \
        f"{probe.name}: heterogeneous pair diverged abstractly"


def check_read_only_rejection(probe: ServiceProbe) -> None:
    """A mutating op on the read-only path is rejected deterministically
    and leaves the abstract state untouched."""
    driver, _ = probe.pair()
    probe.workload(driver)
    before = driver.snapshot()
    reply = driver.op(*probe.mutating_op, read_only=True)
    assert probe.is_error(reply), \
        f"{probe.name}: read-only path accepted a mutation: {reply!r}"
    assert driver.snapshot() == before, \
        f"{probe.name}: rejected mutation still changed state"
    if probe.read_only_op is not None:
        driver.ok(*probe.read_only_op, read_only=True)


def check_malformed_ops(probe: ServiceProbe) -> None:
    """Garbage from a Byzantine client — undecodable blobs, unknown op
    tags, ill-typed arguments — draws identical deterministic error
    envelopes from both wrappers of a pair, and never an exception."""
    first, second = probe.pair()
    probe.workload(first)
    probe.workload(second)
    blobs = [canonical(parts)
             for parts in list(probe.malformed_ops) + list(probe.unknown_ops)]
    blobs.append(b"\xff\x00 not canonical at all")
    for blob in blobs:
        raws = []
        for driver in (first, second):
            before = driver.snapshot()
            raw = driver.raw(blob)
            reply = decanonical(raw)
            assert probe.is_error(reply), \
                f"{probe.name}: accepted garbage {blob!r}: {reply!r}"
            assert driver.snapshot() == before, \
                f"{probe.name}: rejected op {blob!r} changed state"
            raws.append(raw)
        assert raws[0] == raws[1], \
            f"{probe.name}: error reply for {blob!r} not deterministic"


def check_restart_survival(probe: ServiceProbe) -> None:
    """shutdown persists the conformance rep; after restart, the state
    transfer delta repairs whatever the reboot lost, and the service
    keeps executing."""
    driver, _ = probe.pair()
    probe.workload(driver)
    before = driver.snapshot()
    down_cost = driver.wrapper.shutdown()
    up_cost = driver.wrapper.restart()
    assert down_cost > 0.0 and up_cost > 0.0, \
        f"{probe.name}: rep persistence must model disk I/O time"
    # Fetch-and-check: every object whose digest changed is re-fetched.
    dirty = {index: blob for index, blob in before.items()
             if driver.wrapper.get_obj(index) != blob}
    if dirty:
        driver.wrapper.put_objs(dirty)
    assert driver.snapshot() == before, \
        f"{probe.name}: state transfer did not repair the restart"
    driver.ok(*probe.post_restart_op)


def _container_sizes(wrapper: AbstractService) -> Dict[str, int]:
    """Length of every sized attribute of ``wrapper``, by name."""
    return {name: len(value) for name, value in vars(wrapper).items()
            if hasattr(value, "__len__")}


def check_txn_framing(probe: ServiceProbe) -> None:
    """The kernel's two-phase meta-ops frame a sub-op without changing
    its semantics: prepare + commit yields byte-identical replies and an
    identical abstract state to direct execution, while refused votes,
    aborts, and read-only-path commits have zero abstract-state effect.
    """
    from repro.service.kernel import TXN_TAG
    framed, direct = probe.pair()
    probe.workload(framed)
    probe.workload(direct)
    sub = canonical(probe.mutating_op)
    reply = framed.op("__prepare__", "txn-1", (sub,))
    assert reply[:2] == (TXN_TAG, "prepared"), \
        f"{probe.name}: prepare vote failed: {reply!r}"
    # Advance the direct driver's clock past an op with no state effect,
    # so the sub-op executes under the same agreed timestamp on both.
    direct.raw(canonical(("__no_such_op__",)))
    commit = framed.op("__commit__", "txn-1", (sub,))
    assert commit[:2] == (TXN_TAG, "committed"), \
        f"{probe.name}: commit failed: {commit!r}"
    assert commit[3][0] == direct.raw(sub), \
        f"{probe.name}: framed sub-op reply differs from direct execution"
    assert framed.snapshot() == direct.snapshot(), \
        f"{probe.name}: framed sub-op left a different abstract state"
    # Refusals, aborts, abandoned prepares: all state-neutral.
    before = framed.snapshot()
    refused = framed.op("__prepare__", "txn-2",
                        (canonical(("__no_such_op__",)),))
    assert refused[:2] == (TXN_TAG, "refused"), \
        f"{probe.name}: prepared an undispatchable sub-op: {refused!r}"
    framed.op("__prepare__", "txn-3", (sub,))
    aborted = framed.op("__abort__", "txn-3")
    assert aborted[:2] == (TXN_TAG, "aborted"), \
        f"{probe.name}: abort failed: {aborted!r}"
    gated = framed.op("__commit__", "txn-4", (sub,), read_only=True)
    assert gated[:2] == (TXN_TAG, "read_only"), \
        f"{probe.name}: read-only path accepted a commit: {gated!r}"
    assert framed.snapshot() == before, \
        f"{probe.name}: a non-committing meta-op changed abstract state"
    # A coordinator that dies after prepare (or a client that only ever
    # prepares) must not grow anything on the replica: a prepare is a
    # stateless vote.
    sizes_before = _container_sizes(framed.wrapper)
    for i in range(100):
        framed.op("__prepare__", f"abandoned-{i}", (sub,))
    assert _container_sizes(framed.wrapper) == sizes_before, \
        f"{probe.name}: abandoned prepares grew a container on the wrapper"
    assert framed.snapshot() == before, \
        f"{probe.name}: abandoned prepares changed abstract state"


#: The battery, in the order the checks are usually discussed.
BATTERY: Tuple[Callable[[ServiceProbe], None], ...] = (
    check_round_trip,
    check_abstract_determinism,
    check_read_only_rejection,
    check_malformed_ops,
    check_restart_survival,
    check_txn_framing,
)


# -- probes ------------------------------------------------------------------------

_SATTR_FILE = (0o644, 0, 0, -1, -1, -1)
_SATTR_DIR = (0o755, 0, 0, -1, -1, -1)


def _nfs_make_wrapper(variant: int) -> AbstractService:
    from repro.nfs.backends.vendors import (LinuxExt2Backend,
                                            SolarisUfsBackend)
    from repro.nfs.spec import AbstractSpecConfig
    from repro.nfs.wrapper import NfsConformanceWrapper
    backend_class = (LinuxExt2Backend, SolarisUfsBackend)[variant]
    return NfsConformanceWrapper(backend_class(),
                                 spec=AbstractSpecConfig(array_size=32))


def _nfs_root() -> bytes:
    from repro.nfs.spec import ROOT_OID
    return ROOT_OID


def _nfs_workload(d: Driver) -> None:
    root = _nfs_root()
    docs = d.ok("mkdir", root, "docs", _SATTR_DIR)[1]
    a = d.ok("create", root, "a.txt", _SATTR_FILE)[1]
    d.ok("write", a, 0, b"hello abstract world")
    b = d.ok("create", docs, "b.txt", _SATTR_FILE)[1]
    d.ok("write", b, 0, b"doomed")
    d.ok("symlink", root, "link", "a.txt", _SATTR_FILE)
    d.ok("setattr", a, (0o600, 0, 0, -1, -1, -1))
    d.ok("setattr", a, (-1, -1, -1, 5, -1, -1))       # truncate
    d.ok("setattr", a, (-1, -1, -1, 4000, -1, -1))    # extend
    d.ok("create", docs, "sized.bin", (0o644, 0, 0, 100, -1, -1))
    d.ok("remove", docs, "b.txt")
    d.ok("getattr", a, read_only=True)
    d.ok("readdir", root, read_only=True)
    d.ok("statfs", root, read_only=True)


def _sql_make_wrapper(variant: int) -> AbstractService:
    from repro.sql.engine import BTreeStoreEngine, HashStoreEngine
    from repro.sql.wrapper import SqlConformanceWrapper
    engine_class = (HashStoreEngine, BTreeStoreEngine)[variant]
    return SqlConformanceWrapper(engine_class(), array_size=32)


def _sql_workload(d: Driver) -> None:
    d.ok("create_table", "users", ("id", "name", "karma"), "id")
    d.ok("insert", "users", (1, "ada", 10))
    d.ok("insert", "users", (2, "grace", 20))
    d.ok("insert", "users", (3, "alan", 30))
    d.ok("update", "users", 2, (2, "grace", 25))
    d.ok("delete", "users", 3)
    d.ok("create_table", "tags", ("tag", "count"), "tag")
    d.ok("insert", "tags", ("base", 1))
    d.ok("create_table", "pairs", ("key", "value"), "key")
    d.ok("insert", "pairs", ((1, "a"), "first"))
    d.ok("select", "users", 1, read_only=True)
    d.ok("scan", "users", read_only=True)


def _http_make_wrapper(variant: int) -> AbstractService:
    from repro.http.engine import ApacheLikeServer, NginxLikeServer
    from repro.http.wrapper import HttpConformanceWrapper
    if variant == 0:
        server = ApacheLikeServer(boot_salt=7)
    else:
        server = NginxLikeServer()
    return HttpConformanceWrapper(server, array_size=32)


def _http_workload(d: Driver) -> None:
    d.ok("MKCOL", "/docs")
    d.ok("PUT", "/docs/a.html", b"<p>alpha</p>")
    d.ok("PUT", "/b.txt", b"beta")
    d.ok("PUT", "/b.txt", b"beta v2")
    d.ok("PUT", "/docs/c.txt", b"gamma")
    d.ok("DELETE", "/docs/a.html")
    d.ok("MKCOL", "/old")
    d.ok("PUT", "/old/d.txt", b"delta")
    d.ok("DELETE", "/old")  # a non-empty collection: its members go too
    d.ok("GET", "/b.txt", "", read_only=True)
    d.ok("HEAD", "/b.txt", read_only=True)
    d.ok("PROPFIND", "/docs", read_only=True)


def _thor_rec(value) -> bytes:
    from repro.thor.objects import ObjectRecord
    return ObjectRecord("Item", (value,)).encode()


def _thor_make_wrapper(variant: int) -> AbstractService:
    from repro.thor.pages import Page
    from repro.thor.server import ThorServer, ThorServerConfig
    from repro.thor.wrapper import ThorConformanceWrapper
    # Same single implementation, concretely divergent: different seeds
    # and cache/MOB pressure (§3.2 — "identical nondeterministic
    # implementation with different internal schedules").
    sizing = ({"cache_pages": 2, "mob_bytes": 200},
              {"cache_pages": 1, "mob_bytes": 50})[variant]
    server = ThorServer(ThorServerConfig(seed=11 + 31 * variant, **sizing))
    for pagenum in range(4):
        server.load_page(Page(pagenum, {o: _thor_rec(pagenum * 10 + o)
                                        for o in range(4)}))
    return ThorConformanceWrapper(server, num_pages=8, max_clients=4)


def _thor_workload(d: Driver) -> None:
    from repro.thor.orefs import make_oref
    d.ok("start_session", "alice")
    d.ok("start_session", "bob")
    d.ok("fetch", "alice", 0, (), ())
    d.ok("fetch", "bob", 0, (), ())
    d.ok("fetch", "bob", 1, (), ())
    oref = make_oref(0, 1)
    committed, _ = d.ok("commit", "alice", d.next_agreed_us() + 1,
                        (oref,), ((oref, _thor_rec("alice-v1")),),
                        (), ())[1:]
    assert committed
    oref2 = make_oref(1, 2)
    d.ok("commit", "bob", d.next_agreed_us() + 1, (oref2,),
         ((oref2, _thor_rec("bob-v1")),), (), (oref,))


PROBES: Dict[str, ServiceProbe] = {probe.name: probe for probe in (
    ServiceProbe(
        name="nfs",
        make_wrapper=_nfs_make_wrapper,
        workload=_nfs_workload,
        is_error=lambda reply: reply[0] != 0,
        mutating_op=("create", _nfs_root(), "denied.txt", _SATTR_FILE),
        post_restart_op=("create", _nfs_root(), "post-restart.txt",
                         _SATTR_FILE),
        read_only_op=("getattr", _nfs_root()),
        malformed_ops=[("getattr",), ("write", _nfs_root()),
                       ("setattr", _nfs_root()),
                       ("getattr", b"ab")],  # a handle of the wrong size
    ),
    ServiceProbe(
        name="sql",
        make_wrapper=_sql_make_wrapper,
        workload=_sql_workload,
        is_error=lambda reply: reply[0] != "OK",
        mutating_op=("insert", "users", (9, "mallory", 0)),
        post_restart_op=("insert", "users", (7, "post-restart", 1)),
        read_only_op=("tables",),
        malformed_ops=[("insert",), ("select", "users"),
                       ("create_table", "t"),
                       # a tuple key whose members differ in type
                       ("insert", "pairs", (("b", 2), "second"))],
    ),
    ServiceProbe(
        name="http",
        make_wrapper=_http_make_wrapper,
        workload=_http_workload,
        is_error=lambda reply: not isinstance(reply[0], int)
        or reply[0] >= 400,
        mutating_op=("PUT", "/denied.txt", b"x", ""),
        post_restart_op=("PUT", "/post-restart.txt", b"post", ""),
        read_only_op=("GET", "/b.txt", ""),
        malformed_ops=[("PUT", "/x"), ("GET",), ("MKCOL",),
                       ("PUT", "/x", 5, ""),  # a body that is not bytes
                       ("GET", 5)],  # a path that is not a str
    ),
    ServiceProbe(
        name="thor",
        make_wrapper=_thor_make_wrapper,
        workload=_thor_workload,
        is_error=lambda reply: reply[0] != 0,
        mutating_op=("start_session", "mallory"),
        post_restart_op=("start_session", "carol"),
        read_only_op=None,  # every Thor op mutates server state
        malformed_ops=[("fetch", "alice"), ("commit", "alice"),
                       ("start_session",)],
    ),
)}


def probe_names() -> List[str]:
    return sorted(PROBES)


def get_probe(name: str) -> ServiceProbe:
    return PROBES[name]


# -- faulty-backend probes (software ageing under the same battery) ----------------
#
# The battery's contract must also hold when the off-the-shelf backend is
# *ageing* (paper §1: leaks and latent corruption are exactly what
# proactive recovery exists to mask).  These probes wrap the NFS vendors
# in the fault injectors from :mod:`repro.nfs.backends.faulty` and run
# the identical checks:
#
# - ``nfs-leaky`` — the backend leaks on every call but has not yet aged
#   out: conformance must be oblivious to sub-critical ageing, and the
#   restart-survival check doubles as the rejuvenation path (``load_rep``
#   clears the leak before remounting).
# - ``nfs-corrupting`` — the backend silently corrupts every file write
#   during the workload (the rot stops before repair, as when recovery
#   rejuvenates the process): heterogeneous determinism must hold even
#   over the rotten state, and state transfer must reproduce that state
#   faithfully rather than laundering it.
#
# Kept out of :data:`PROBES` deliberately: that registry mirrors the
# service registry one-to-one (asserted by the conformance tests).


def _faulty_nfs_wrapper(variant: int, fault: str):
    from repro.nfs.backends.faulty import CorruptingBackend, LeakyBackend
    from repro.nfs.backends.vendors import (LinuxExt2Backend,
                                            SolarisUfsBackend)
    from repro.nfs.spec import AbstractSpecConfig
    from repro.nfs.wrapper import NfsConformanceWrapper
    inner = (LinuxExt2Backend, SolarisUfsBackend)[variant]()
    if fault == "leaky":
        backend = LeakyBackend(inner, leak_per_op=1024, limit=1 << 30)
    else:
        # Same seed for both variants: identical fault sequences must
        # keep a heterogeneous pair abstractly identical.
        backend = CorruptingBackend(inner, probability=0.0, seed=7)
    return NfsConformanceWrapper(backend,
                                 spec=AbstractSpecConfig(array_size=32))


def _leaky_nfs_workload(d: Driver) -> None:
    _nfs_workload(d)
    assert d.wrapper.backend.leaked > 0, \
        "nfs-leaky: the workload never exercised the leak"


def _corrupting_nfs_workload(d: Driver) -> None:
    backend = d.wrapper.backend
    backend.probability = 1.0  # rot is live for the whole working period
    try:
        _nfs_workload(d)
    finally:
        backend.probability = 0.0  # ...and stops before any repair runs
    assert backend.corruptions > 0, \
        "nfs-corrupting: the workload never drew a corruption"


def _make_faulty_nfs_probe(fault: str) -> ServiceProbe:
    workload = {"leaky": _leaky_nfs_workload,
                "corrupting": _corrupting_nfs_workload}[fault]
    return replace(
        PROBES["nfs"], name=f"nfs-{fault}",
        make_wrapper=lambda variant: _faulty_nfs_wrapper(variant, fault),
        workload=workload)


FAULTY_PROBES: Dict[str, ServiceProbe] = {
    probe.name: probe
    for probe in (_make_faulty_nfs_probe("leaky"),
                  _make_faulty_nfs_probe("corrupting"))
}


def faulty_probe_names() -> List[str]:
    return sorted(FAULTY_PROBES)


def get_faulty_probe(name: str) -> ServiceProbe:
    return FAULTY_PROBES[name]
