"""Ablation — in-place vs clean-disk proactive recovery (§3.1.4).

The paper's prototype restarts the NFS server on the same file system and
repairs it in place; it *proposes* restarting on a second, empty disk to
widen the fault classes tolerated.  This bench quantifies the trade:
clean recovery fetches the whole state (slower fetch phase), in-place
recovery fetches only what changed or rotted.
"""

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.harness import costs as C
from repro.harness.report import format_table
from repro.nfs.backends.vendors import LinuxExt2Backend
from repro.nfs.client import NfsClient
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment


def run(clean: bool):
    basefs = ReplicatedDeployment.build(
        NFS_SERVICE, [LinuxExt2Backend] * 4,
        spec=AbstractSpecConfig(array_size=512),
        config=BftConfig(n=4, checkpoint_interval=16, reboot_delay=0.3,
                         view_change_timeout=0.5, client_retry_timeout=0.3),
        profiles=[C.vendor_profile("linux-ext2")] * 4,
        replica_costs=C.replica_costs(),
        network_config=C.lan_network(),
        base_config=BaseServiceConfig(
            branching=16, per_object_check_cost=C.PER_OBJECT_CHECK_COST,
            checkpoint_cost=C.CHECKPOINT_COST))
    cluster = basefs.cluster
    if clean:
        for replica in cluster.replicas:
            wrapper = replica.state.upcalls
            wrapper.clean_recovery_factory = \
                lambda w=wrapper: LinuxExt2Backend(clock=w.timestamps.clock)
    fs = NfsClient(basefs.client)
    fs.mkdir("/data")
    for i in range(40):
        fs.write_file(f"/data/file{i}", b"x" * 600)
    cluster.run(1.0)
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    cluster.run(60.0)
    assert not victim.recovery.recovering
    return victim.recovery.records[-1], victim, \
        victim.transfer.bytes_fetched_total


def test_ablation_clean_vs_inplace_recovery(benchmark):
    in_place, _, bytes_in_place = benchmark.pedantic(
        lambda: run(clean=False), rounds=1, iterations=1)
    clean, victim, bytes_clean = run(clean=True)

    rows = [
        ("in-place", in_place.fetch_and_check, in_place.objects_fetched,
         bytes_in_place, in_place.total),
        ("clean disk", clean.fetch_and_check, clean.objects_fetched,
         bytes_clean, clean.total),
    ]
    print()
    print(format_table(
        "Ablation: recovery flavours (simulated seconds)",
        ["flavour", "fetch+check", "objects", "bytes fetched", "total"],
        rows,
        note="Clean recovery rebuilds everything from the abstract state "
             "(wider fault coverage, whole-state fetch); in-place pays "
             "the local check but fetches only the delta."))

    live = sum(1 for e in victim.state.upcalls.rep.entries if not e.is_free)
    assert clean.objects_fetched >= live          # everything re-fetched
    assert in_place.objects_fetched < 0.5 * clean.objects_fetched
    assert bytes_clean > 5 * bytes_in_place
