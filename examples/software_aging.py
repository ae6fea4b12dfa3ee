#!/usr/bin/env python
"""Software rejuvenation: proactive recovery vs an aging implementation.

The paper's motivation (§1, Huang et al. 1995): the longer software runs,
the likelier it fails — resource leaks being the canonical cause.  This
demo wraps every BASEFS replica's backend in a leak injector.  Without
recovery, replicas age out one by one and the service eventually loses
its quorum; with staggered proactive recovery, each reboot clears the
leak and the service runs indefinitely.

Run:  python examples/software_aging.py
"""

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.nfs.backends.faulty import LeakyBackend
from repro.nfs.backends.vendors import LinuxExt2Backend
from repro.nfs.client import NfsClient
from repro.nfs.protocol import NfsError
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.nfs.wrapper import NfsConformanceWrapper
from repro.service.deploy import ReplicatedDeployment


def build(recovery: bool):
    config = BftConfig(
        n=4, checkpoint_interval=8, reboot_delay=0.2,
        view_change_timeout=1.0, client_retry_timeout=0.5,
        recovery_interval=2.0 if recovery else 0.0,
        recovery_stagger=0.8 if recovery else 0.0)
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, [LinuxExt2Backend] * 4,
        spec=AbstractSpecConfig(array_size=128),
        config=config, base_config=BaseServiceConfig(branching=8))
    # Bolt the leak injector onto every replica's backend: ~every write
    # leaks; after `limit`, mutating operations fail with NFSERR_IO.
    for replica in basefs.replicas:
        wrapper = replica.state.upcalls
        wrapper.backend = LeakyBackend(wrapper.backend, leak_per_op=100,
                                       limit=150_000)
    return basefs.cluster, NfsClient(basefs.client)


def drive(cluster, fs, rounds):
    """Issue writes until the service fails or `rounds` complete."""
    for i in range(rounds):
        try:
            fs.write_file(f"/w{i % 16}", b"payload %d" % i)
        except (NfsError, TimeoutError) as err:
            return i, err
        cluster.run(0.2)  # idle time between bursts (lets watchdogs fire)
    return rounds, None


def main():
    rounds = 120

    print("WITHOUT proactive recovery: every replica leaks until its")
    print("backend ages out; writes fail once f+1 replicas agree on the")
    print("(deterministic) NFSERR_IO...")
    cluster, fs = build(recovery=False)
    survived, err = drive(cluster, fs, rounds)
    aged = sum(1 for r in cluster.replicas
               if r.state.upcalls.backend.aged_out)
    print(f"  -> failed after {survived} writes "
          f"({aged}/4 replicas aged out): {err}\n")

    print("WITH staggered proactive recovery: each reboot rejuvenates the")
    print("backend (the leak resets) before it can age out...")
    cluster, fs = build(recovery=True)
    survived, err = drive(cluster, fs, rounds)
    recoveries = sum(len(r.recovery.records) for r in cluster.replicas)
    leaks = [r.state.upcalls.backend.leaked for r in cluster.replicas]
    print(f"  -> {survived} writes succeeded; {recoveries} recoveries; "
          f"current leak levels: {leaks}")
    assert err is None, f"recovery failed to keep the service alive: {err}"
    print("\nsoftware rejuvenation kept the service available; demo OK")


if __name__ == "__main__":
    main()
