"""The paper's thesis, demonstrated negatively.

BFT alone "requires all replicas to run the same service implementation
and to update their state in a deterministic way" (§1).  These tests
replicate the NFS backends *without* the conformance wrapper — exposing
native file handles, native readdir order, and local-clock timestamps —
and watch replication break exactly as the paper predicts:

- heterogeneous replicas cannot assemble f+1 matching replies (their
  native answers differ byte-for-byte), so the client starves;
- even a homogeneous but *nondeterministic* implementation (FreeBSD's
  random file-handle generations) diverges;
- the same backends behind the real conformance wrapper work fine.
"""

import pytest

from repro.base.library import build_base_cluster
from repro.base.upcalls import Upcalls
from repro.bft.config import BftConfig
from repro.encoding.canonical import canonical, decanonical
from repro.nfs.backends.vendors import (ALL_BACKENDS, FreeBsdUfsBackend,
                                        LinuxExt2Backend)
from repro.nfs.protocol import NfsError, Sattr


class NaiveNfsUpcalls(Upcalls):
    """Replication WITHOUT abstraction: ops hit the backend verbatim and
    the reply is whatever the backend natively says — handles, orders,
    timestamps from the local clock and all."""

    def __init__(self, backend):
        super().__init__()
        self.backend = backend
        self.root = backend.mount()

    @property
    def num_objects(self):
        return 64

    def execute(self, op, client_id, nondet, read_only=False):
        kind, *args = decanonical(op)
        try:
            if kind == "create":
                fh, fattr = self.backend.create(self.root, args[0], Sattr())
                # Native handle and native (local-clock) timestamps leak.
                return canonical((0, fh, fattr.encode()))
            if kind == "readdir":
                return canonical((0, tuple(self.backend.readdir(self.root))))
            if kind == "getattr":
                return canonical((0,
                                  self.backend.getattr(args[0]).encode()))
        except NfsError as err:
            return canonical((int(err.status),))
        return canonical((1,))

    def get_obj(self, index):
        # "The state" is whatever the backend has — native and divergent.
        entries = tuple(self.backend.readdir(self.root))
        return canonical((index, entries))

    def put_objs(self, objects):
        pass  # naive replication has no meaningful inverse


def naive_cluster(backend_classes):
    def factory(cls):
        def make():
            kwargs = {"boot_salt": hash(cls.vendor) & 0xFF} \
                if cls is FreeBsdUfsBackend else {}
            return NaiveNfsUpcalls(cls(**kwargs))
        return make
    return build_base_cluster(
        [factory(cls) for cls in backend_classes],
        config=BftConfig(n=4, checkpoint_interval=8,
                         client_retry_timeout=0.2))


def test_heterogeneous_without_abstraction_starves_clients():
    """Four OSes, no wrapper: every replica's reply differs (native file
    handles), so the client never sees f+1 matching replies."""
    cluster = naive_cluster(list(ALL_BACKENDS))
    client = cluster.add_client("naive").client
    box = {}
    client.invoke(canonical(("create", "file.txt")),
                  lambda res: box.update(r=res))
    cluster.run(5.0)
    assert "r" not in box, (
        "naive heterogeneous replication should never reach a reply "
        "quorum — did the backends accidentally agree?")


def test_nondeterminism_without_abstraction_starves_clients():
    """Even the SAME implementation breaks when it is nondeterministic:
    FreeBSD-style random handle generations differ per replica."""
    cluster = naive_cluster([FreeBsdUfsBackend] * 4)
    # Different boot salts per replica (the factory hashes the vendor, so
    # force distinct salts here).
    for i, replica in enumerate(cluster.replicas):
        replica.state.upcalls.backend.reboot_salt(100 + i)
    client = cluster.add_client("naive").client
    box = {}
    client.invoke(canonical(("create", "file.txt")),
                  lambda res: box.update(r=res))
    cluster.run(5.0)
    assert "r" not in box


def test_readdir_order_divergence_without_abstraction():
    """Deterministic ops with order-divergent replies also fail: the
    insertion-order and sorted-order backends cannot agree on READDIR."""
    from repro.nfs.backends.vendors import OpenBsdFfsBackend, SolarisUfsBackend
    cluster = naive_cluster([LinuxExt2Backend, SolarisUfsBackend,
                             OpenBsdFfsBackend, LinuxExt2Backend])
    client = cluster.add_client("naive").client
    box = {}
    # Two same-vendor replicas (linux) DO agree on create; quorum f+1=2
    # can be reached for writes...
    client.invoke(canonical(("create", "a.txt")),
                  lambda res: box.update(r1=res))
    cluster.run(3.0)
    client_ok = "r1" in box
    if client_ok:
        client.invoke(canonical(("create", "b.txt")),
                      lambda res: box.update(r2=res))
        cluster.run(3.0)
    # ...but the group is a time bomb: the replicas' "abstract" states
    # (native readdir output) have already diverged — any state digest
    # computed over them can never stabilize across vendors.  (The naive
    # upcalls never call modify(), so the divergence is also *latent*:
    # the live trees still show the initial digests until someone looks.)
    assert client_ok, "same-vendor pair should reach a write quorum"
    states = {replica.state.upcalls.get_obj(0)
              for replica in cluster.replicas}
    assert len(states) > 1
    for replica in cluster.replicas:
        replica.state.mark_all_dirty()
        replica.state.refresh_dirty()
    roots = {replica.state.tree.root_digest for replica in cluster.replicas}
    assert len(roots) > 1


def test_same_backends_with_abstraction_work():
    """Control: the identical lineup behind the real conformance wrapper
    serves correctly (this is the whole point of the methodology)."""
    from repro.base.library import BaseServiceConfig
    from repro.bft.config import BftConfig
    from repro.nfs.client import NfsClient
    from repro.nfs.service import NFS_SERVICE
    from repro.nfs.spec import AbstractSpecConfig
    from repro.service.deploy import ReplicatedDeployment
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, list(ALL_BACKENDS),
        spec=AbstractSpecConfig(array_size=64),
        config=BftConfig(n=4, checkpoint_interval=8),
        base_config=BaseServiceConfig(branching=8))
    fs = NfsClient(basefs.client)
    fs.write_file("/file.txt", b"works")
    assert fs.read_file("/file.txt") == b"works"
    basefs.run(2.0)
    roots = {r.state.tree.root_digest for r in basefs.replicas}
    assert len(roots) == 1
