#!/usr/bin/env python
"""BASEFS: a Byzantine-fault-tolerant NFS service over four different
operating systems' file-system implementations (paper §3.1).

Demonstrates:

1. opportunistic N-version programming — each replica wraps a different
   backend (Linux/Ext2, Solaris/UFS, OpenBSD/FFS, FreeBSD/UFS) whose
   file handles, readdir orders, and timestamps all disagree;
2. the common abstract specification masking every difference;
3. a silent corruption on one replica being detected at the next
   checkpoint and repaired by hierarchical state transfer;
4. proactive recovery rejuvenating a replica whose backend leaks.

Run:  python examples/replicated_nfs.py
"""

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.nfs.backends.vendors import ALL_BACKENDS
from repro.nfs.client import NfsClient
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment


def main():
    config = BftConfig(n=4, checkpoint_interval=8,
                       view_change_timeout=2.0, client_retry_timeout=1.0,
                       reboot_delay=0.5)
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, list(ALL_BACKENDS),
        spec=AbstractSpecConfig(array_size=256),
        config=config, base_config=BaseServiceConfig(branching=8))
    cluster = basefs.cluster
    fs = NfsClient(basefs.client)

    print("replicas run:", ", ".join(
        r.state.upcalls.backend.vendor for r in cluster.replicas))

    print("\nbuilding a project tree through the replicated service...")
    fs.mkdir("/project")
    fs.mkdir("/project/src")
    fs.write_file("/project/src/main.c", b'#include "app.h"\nint main(){}\n')
    fs.write_file("/project/src/app.h", b"#define VERSION 1\n")
    fs.symlink("/project/current", "src/main.c")
    print("  /project ->", fs.listdir("/project"))
    print("  /project/src ->", fs.listdir("/project/src"))

    print("\nconcrete file handles differ per replica; the client sees one"
          " abstract oid per object:")
    for r in cluster.replicas:
        wrapper = r.state.upcalls
        entry = wrapper.rep.entries[1]
        print(f"  {wrapper.backend.vendor:12s} backend fh for oid#1: "
              f"{entry.fh.hex()}")

    # -- silent corruption, detected and repaired --------------------------------
    victim = cluster.replicas[1]
    backend = victim.state.upcalls.backend
    ino = backend.find_ino("project", "src", "main.c")
    backend.corrupt_file_data(ino, b"GARBAGE!")
    print(f"\ncorrupted main.c on {backend.vendor} behind the server's back")

    # Drive work past a checkpoint: the corrupt replica's checkpoint digest
    # diverges and it repairs itself from the others.
    for i in range(10):
        fs.write_file(f"/project/gen{i}.txt", b"x" * 100)
    cluster.run(5.0)
    project_fh, _ = backend.lookup(backend.mount(), "project")
    src_fh, _ = backend.lookup(project_fh, "src")
    main_fh, _ = backend.lookup(src_fh, "main.c")
    repaired, _ = backend.read(main_fh, 0, 100)
    print(f"  after checkpoint + state transfer it reads: {repaired[:16]!r}")
    assert repaired.startswith(b'#include'), "corruption not repaired!"
    transfers = cluster.tracer.find("transfer_complete",
                                    source=victim.node_id)
    print(f"  ({len(transfers)} state transfer(s) ran on {backend.vendor})")

    # -- proactive recovery -------------------------------------------------------
    print("\ntriggering proactive recovery of the FreeBSD replica "
          "(its handles change across restarts)...")
    freebsd = cluster.replicas[3]
    freebsd.recovery.start_recovery()
    cluster.run(30.0)
    rec = freebsd.recovery.records[-1]
    print(f"  recovery done: shutdown {rec.shutdown * 1e3:.2f} ms, reboot "
          f"{rec.reboot:.1f} s, restart {rec.restart * 1e3:.2f} ms, "
          f"fetch+check {rec.fetch_and_check * 1e3:.1f} ms")

    print("\nservice still healthy after recovery:")
    print("  main.c =", fs.read_file("/project/src/main.c")[:16], "...")
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1, "abstract states diverged!"
    print("  all four abstract states byte-identical; demo OK")


if __name__ == "__main__":
    main()
