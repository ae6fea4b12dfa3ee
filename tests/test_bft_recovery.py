"""Proactive recovery: watchdog-driven rejuvenation with state checking."""

from tests.conftest import make_kv_cluster
from repro.bft.statemachine import InMemoryStateManager

put = InMemoryStateManager.op_put


def test_manual_recovery_completes_and_replica_rejoins():
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=1.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"r%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    assert victim.recovery.recovering
    cluster.run(10.0)
    assert not victim.recovery.recovering
    rec = victim.recovery.records[-1]
    assert rec.reboot == 1.0
    assert rec.total > 1.0
    # Rejoined: subsequent writes reach it.
    for i in range(4):
        client.call(put(i, b"post%d" % i))
    cluster.run(2.0)
    assert victim.state.values == cluster.replicas[0].state.values


def test_recovery_repairs_corrupt_state():
    """Recovery's check phase recomputes every object digest, so silent
    corruption is found and repaired even when nothing else flags it."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=0.5)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"v%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[1]
    victim.state.values[3] = b"ROT"
    victim.recovery.start_recovery()
    cluster.run(10.0)
    assert victim.state.values[3] == b"v3"
    rec = victim.recovery.records[-1]
    assert rec.objects_fetched >= 1


def test_recovery_refreshes_session_keys():
    cluster = make_kv_cluster(reboot_delay=0.5, checkpoint_interval=4)
    client = cluster.add_client("client0")
    for i in range(4):
        client.call(put(i, b"k%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[3]
    epoch_before = cluster.registry.epoch(victim.node_id)
    victim.recovery.start_recovery()
    cluster.run(10.0)
    assert cluster.registry.epoch(victim.node_id) == epoch_before + 1


def test_service_stays_available_during_recovery():
    """While one replica recovers, the other three keep serving."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=5.0)
    client = cluster.add_client("client0")
    for i in range(4):
        client.call(put(i, b"pre%d" % i))
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    assert victim.recovery.recovering
    # Issue writes while the victim is down rebooting.
    for i in range(4):
        assert client.call(put(4 + i, b"mid%d" % i)) == b"ok"
    cluster.run(20.0)
    assert not victim.recovery.recovering
    assert victim.state.values[:8] == cluster.replicas[0].state.values[:8]


def test_watchdog_triggers_staggered_recoveries():
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=0.2,
                              recovery_interval=10.0, recovery_stagger=3.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"w%d" % i))
    cluster.run(60.0)
    recovered = [r for r in cluster.replicas if r.recovery.records]
    assert len(recovered) == 4
    # Staggering: no two recoveries started simultaneously.
    starts = sorted(rec.started_at for r in cluster.replicas
                    for rec in r.recovery.records[:1])
    assert all(b - a >= 1.0 for a, b in zip(starts, starts[1:]))


def test_recovery_record_breakdown_phases():
    """Table IV structure: shutdown + reboot + restart + fetch-and-check."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=2.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i, b"x%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[0]
    victim.recovery.start_recovery()
    cluster.run(20.0)
    rec = victim.recovery.records[-1]
    assert rec.reboot == 2.0
    assert rec.fetch_and_check >= 0.0
    assert rec.completed_at > rec.started_at
    assert abs(rec.completed_at - rec.started_at - rec.total) < 1e-6


def test_recovery_with_no_checkpoints_yet():
    """Recovering before any stable checkpoint exists completes at seq 0."""
    cluster = make_kv_cluster(checkpoint_interval=64, reboot_delay=0.2)
    cluster.run(0.1)
    victim = cluster.replicas[1]
    victim.recovery.start_recovery()
    cluster.run(10.0)
    assert not victim.recovery.recovering


def test_repeated_recoveries_tolerate_unbounded_faults_over_time():
    """The point of proactive recovery: one corruption per window, forever."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=0.2)
    client = cluster.add_client("client0")
    for round_no in range(3):
        for i in range(4):
            client.call(put(i, b"round%d-%d" % (round_no, i)))
        cluster.run(1.0)
        victim = cluster.replicas[round_no % 4]
        victim.state.values[round_no] = b"BAD"
        victim.recovery.start_recovery()
        cluster.run(15.0)
        assert victim.state.values == cluster.replicas[(round_no + 1) % 4].state.values


def test_rollback_mid_recovery_does_not_finish_the_recovery():
    """A view change can roll a replica back while it is still fetching
    and checking.  Restoring the local checkpoint proves nothing about
    the state: the recovery completes only when its transfer does."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=0.5)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i, b"v%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[3]
    victim.recovery.start_recovery()
    # No peer answers, so fetch-and-check cannot complete on its own.
    for other in victim.other_replicas:
        cluster.network.partition(victim.node_id, other)
    cluster.run(1.0)
    recovery = victim.recovery
    assert recovery.recovering and not recovery.rebooting

    assert victim.rollback_to_stable() is True
    cluster.run(1.0)
    assert recovery.recovering
    assert recovery.records == []

    # Healed, the next stable checkpoint starts the transfer it needs.
    cluster.network.heal_all()
    for i in range(8):
        client.call(put(i, b"w%d" % i))
    cluster.run(10.0)
    assert not recovery.recovering
    assert len(recovery.records) == 1
    assert victim.state.values == cluster.replicas[0].state.values
