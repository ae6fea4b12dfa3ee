"""Protocol corner cases: watermarks, null-request gap fill, GC, tracer,
and when a replica may ask for a view it missed."""

import pytest

from repro.bft.messages import (Commit, PrePrepare, Prepare, Request,
                                authenticate)
from repro.bft.statemachine import InMemoryStateManager
from repro.bft.viewchange import ViewChangeManager
from repro.crypto.mac import Authenticator
from repro.sim.tracing import Tracer
from tests.conftest import make_kv_cluster, ring_tracer

put = InMemoryStateManager.op_put


def test_primary_respects_high_water_mark():
    """With checkpoints blocked, the primary may propose at most
    log_window sequence numbers and must then stall, not run ahead."""
    cluster = make_kv_cluster(checkpoint_interval=2, batch_max=1,
                              client_retry_timeout=60.0)
    # Block all checkpoint messages: nothing ever becomes stable.
    cluster.network.add_filter(
        lambda s, d, m: getattr(m, "kind", "") != "checkpoint")
    clients = [cluster.add_client(f"c{i}") for i in range(8)]
    done = []
    for i, sync in enumerate(clients):
        sync.client.invoke(put(i, b"w"), lambda res, i=i: done.append(i))
    cluster.run(5.0)
    primary = cluster.replicas[0]
    window = cluster.config.log_window  # 2 * 2 = 4
    assert primary.seq_assigned <= primary.last_stable + window
    assert len(done) <= window
    # Unblock checkpoints: the backlog drains.
    cluster.network._filters.clear()
    # Client retransmissions are far away; replica-side progress resumes
    # as soon as checkpoints stabilize on the next executions.
    cluster.run(1.0)
    for sync in clients:
        if sync.client.busy:
            sync.client._on_retry()
    cluster.run(5.0)
    assert len(done) == 8


def test_new_view_fills_gaps_with_null_requests():
    """compute_new_view_pre_prepares inserts null requests for sequence
    numbers nobody prepared."""
    from repro.bft.messages import PreparedProof, ViewChange
    pp5 = PrePrepare(0, 5, (Request("c", 1, b"op"),), b"")
    proof5 = PreparedProof(0, 5, pp5.batch_digest(), pp5)
    vcs = [ViewChange(1, 2, (), (proof5,), f"replica{i}")
           for i in range(3)]
    pps = ViewChangeManager.compute_new_view_pre_prepares(1, vcs)
    assert [pp.seq for pp in pps] == [3, 4, 5]
    assert pps[0].requests[0].is_null
    assert pps[1].requests[0].is_null
    assert not pps[2].requests[0].is_null
    assert pps[2].batch_digest() != pp5.batch_digest()  # view changed
    assert pps[2].requests == pp5.requests


def test_new_view_prefers_highest_view_proof():
    from repro.bft.messages import PreparedProof, ViewChange
    pp_old = PrePrepare(0, 3, (Request("c", 1, b"old"),), b"")
    pp_new = PrePrepare(1, 3, (Request("c", 2, b"new"),), b"")
    vcs = [
        ViewChange(2, 2, (), (PreparedProof(0, 3, pp_old.batch_digest(),
                                            pp_old),), "replica0"),
        ViewChange(2, 2, (), (PreparedProof(1, 3, pp_new.batch_digest(),
                                            pp_new),), "replica1"),
        ViewChange(2, 2, (), (), "replica2"),
    ]
    pps = ViewChangeManager.compute_new_view_pre_prepares(2, vcs)
    assert len(pps) == 1
    assert pps[0].requests == pp_new.requests


def test_checkpoint_messages_garbage_collected():
    cluster = make_kv_cluster(checkpoint_interval=2)
    client = cluster.add_client("client0")
    for i in range(10):
        client.call(put(i % 4, b"gc%d" % i))
    cluster.run(1.0)
    for replica in cluster.replicas:
        assert all(seq > replica.last_stable
                   for seq in replica.checkpoint_msgs)
        # Retained state checkpoints stay within the window.
        retained = [s for s in (replica.last_stable,)
                    if replica.state.checkpoint_root(s) is not None]
        assert retained, "stable checkpoint must be retained"


def test_checkpoint_history_keeps_the_newest_entries():
    """Every stable checkpoint is noted, and the history keeps only the
    newest ``_HISTORY_MAX`` of them."""
    cluster = make_kv_cluster(checkpoint_interval=1)
    client = cluster.add_client("client0")
    for i in range(530):
        client.call(put(i % 8, b"h%d" % i))
    cluster.run(1.0)
    for replica in cluster.replicas:
        history = replica.checkpoint_history
        assert len(history) == replica._HISTORY_MAX == 512
        assert history[-1][0] == replica.last_stable == 530
        assert [seq for seq, _ in history] == list(range(19, 531))


def test_executed_log_bounded_by_watermarks():
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    for i in range(30):
        client.call(put(i % 8, b"x%d" % i))
    cluster.run(1.0)
    for replica in cluster.replicas:
        assert len(replica.log) <= cluster.config.log_window + 1


def test_rollback_without_a_local_checkpoint_goes_through_state_transfer():
    """rollback_to_stable with the stable checkpoint gone locally cannot
    restore in place: it reports False, counts the fallback, and a
    forced transfer to the stable certificate repairs the state."""
    cluster = make_kv_cluster(checkpoint_interval=2, batch_max=1)
    client = cluster.add_client("client0")
    for i in range(4):
        client.call(put(i, b"v%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[1]
    stable = victim.last_stable
    assert stable == 4 and victim.stable_cert
    # Commits never reach the victim, so its next execution stays
    # tentative (the client still accepts on 2f+1 tentative replies).
    def no_commits(src, dst, msg):
        return not (dst == victim.node_id
                    and getattr(msg, "kind", "") == "commit")
    cluster.network.add_filter(no_commits)
    client.call(put(9, b"tentative"))
    assert victim.last_executed == stable + 1
    assert victim.last_committed_exec == stable
    victim.state.discard_checkpoints_below(stable + 1)

    assert victim.rollback_to_stable() is False
    assert cluster.metrics.counter_value("bft.rollback_via_transfer") == 1
    assert cluster.metrics.counter_value("bft.rollback") == 0
    assert victim.transfer.active and victim.transfer.target_seq == stable

    cluster.network.remove_filter(no_commits)
    cluster.run(1.0)
    assert not victim.transfer.active
    assert cluster.tracer.counters["transfer_complete"] == 1
    for i in range(4):
        client.call(put(i, b"w%d" % i))
    cluster.run(1.0)
    assert {r.last_stable for r in cluster.replicas} == {stable + 4}
    assert len({r.state.checkpoint_root(r.last_stable)
                for r in cluster.replicas}) == 1


# -- the state transitions, each from every way in ----------------------------

def assert_checkpoint_invariants(replica):
    """What holds whenever a replica has just been brought to a
    certified checkpoint, whichever way it got there."""
    stable, root, _ = replica.stable_vector
    assert stable == replica.last_stable
    assert all(seq > stable for seq in replica.log.seqs())
    assert all(seq >= stable for seq in replica.table_checkpoints)
    assert stable in replica.table_checkpoints
    assert all(seq > stable for seq in replica.checkpoint_msgs)
    assert replica.last_committed_exec >= stable
    assert replica.checkpoint_history[-1] == (stable, root)
    assert not [seq for seq in replica.log.seqs()
                if seq > replica.last_executed
                and replica.log.get(seq).executed]
    assert all(seq <= replica.last_executed
               for seq in replica._reply_seq.values())


def _tentative_above_stable():
    """A group stable at 4 whose replica 1 gets no COMMIT: its next
    execution (seq 5, no checkpoint due) stays tentative."""
    cluster = make_kv_cluster(checkpoint_interval=2, batch_max=1)
    client = cluster.add_client("client0")
    for i in range(4):
        client.call(put(i, b"v%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[1]
    cluster.network.add_filter(
        lambda src, dst, msg: not (dst == victim.node_id
                                   and getattr(msg, "kind", "") == "commit"))
    client.call(put(9, b"tentative"))
    assert (victim.last_stable, victim.last_committed_exec,
            victim.last_executed) == (4, 4, 5)
    return cluster, victim


def _stable_by_votes():
    cluster = make_kv_cluster(checkpoint_interval=2, batch_max=1)
    client = cluster.add_client("client0")
    for i in range(6):
        client.call(put(i, b"v%d" % i))
    cluster.run(1.0)
    assert cluster.tracer.counters["checkpoint_stable"] == 3 * cluster.config.n
    return cluster.replicas[2], 6, 6


def _stable_by_transfer():
    """Forced back to the stable checkpoint it executed past."""
    cluster, victim = _tentative_above_stable()
    victim.view_changes.start(victim.view + 1)     # nothing replays
    victim.transfer.initiate(4, victim.stable_cert[0].root_digest,
                             victim.stable_cert, force=True)
    cluster.run(0.5)
    assert cluster.tracer.counters["transfer_complete"] == 1
    return victim, 4, 4


def _rolled_back_by_view_change():
    """Enters a view whose NEW-VIEW does not carry its tentative slot."""
    from repro.bft.messages import ViewChange
    cluster, victim = _tentative_above_stable()
    vcs = tuple(ViewChange(1, 4, (), (), rid)
                for rid in cluster.config.replica_ids[:3])
    victim.view_changes._enter_view(1, vcs, [])
    assert cluster.tracer.counters["tentative_reordered"] == 1
    assert cluster.tracer.counters["rollback"] == 1
    return victim, 4, 4


@pytest.mark.parametrize("way_in", [_stable_by_votes, _stable_by_transfer,
                                    _rolled_back_by_view_change])
def test_checkpoint_invariants_hold_after_every_way_in(way_in):
    replica, stable, executed = way_in()
    assert (replica.last_stable, replica.last_executed) == (stable, executed)
    assert_checkpoint_invariants(replica)


# -- catching up to a missed view: trigger discipline -------------------------

def _sent(cluster, kind):
    """The list every ``kind`` message is appended to, as ``(src, dst,
    msg)``, when it leaves its sender."""
    seen = []

    def watch(src, dst, msg):
        if getattr(msg, "kind", "") == kind:
            seen.append((src, dst, msg))
        return True

    cluster.network.add_filter(watch)
    return seen


def _victim_and_fetches():
    """Replica 0 of a quiet group (view 0), and its FETCH-CERTs."""
    cluster = make_kv_cluster()
    return cluster, cluster.replicas[0], _sent(cluster, "fetch_cert")


def _prepare_from(peer, view, seq=1):
    return authenticate(peer, peer.other_replicas,
                        Prepare(view, seq, b"d" * 32, peer.node_id))


def test_one_peer_climbing_views_solicits_nothing():
    """A single (possibly faulty) peer showing views 1..50, correctly
    MACed, is one voice: no FETCH-CERT, and the table it writes to holds
    one int per peer however far it climbs."""
    cluster, victim, fetches = _victim_and_fetches()
    liar = cluster.replicas[1]
    for view in range(1, 51):
        victim.on_message(liar.node_id, _prepare_from(liar, view))
    cluster.run(1.0)
    assert not fetches and not cluster.tracer.find("view_solicited")
    assert victim._peer_views == {liar.node_id: 50}   # one int, not fifty
    assert victim.view == 0


def test_unauthenticated_future_view_messages_do_not_count():
    """Missing authenticator, forged authenticator, an authenticator
    minted by someone other than ``src``, a non-member ``src``: none
    moves the per-peer table, so none counts toward f+1."""
    cluster, victim, fetches = _victim_and_fetches()
    r1, r2, r3 = cluster.replicas[1:]
    bare = Prepare(1, 1, b"d" * 32, r1.node_id)
    victim.on_message(r1.node_id, bare)
    forged = Prepare(1, 1, b"d" * 32, r2.node_id)
    forged.auth = Authenticator.forged(r2.node_id, [victim.node_id])
    victim.on_message(r2.node_id, forged)
    # r3's honest message, replayed under r1's name.
    victim.on_message(r1.node_id, _prepare_from(r3, 1))
    # A correctly MACed message from a node that is not a group member.
    cluster.add_client("mallory")
    com = Commit(1, 1, b"d" * 32, "mallory")
    com.auth = Authenticator.create(cluster.registry, "mallory",
                                    (victim.node_id,), com.digest())
    victim.on_message("mallory", com)
    cluster.run(1.0)
    assert victim._peer_views == {}
    assert not fetches

    # One honest peer is still below f+1 ...
    victim.on_message(r3.node_id, _prepare_from(r3, 1))
    assert victim._peer_views == {r3.node_id: 1} and not fetches
    # ... and the second makes it.
    victim.on_message(r1.node_id, _prepare_from(r1, 1))
    cluster.run(0.1)
    assert len(fetches) == cluster.config.n - 1


def test_nothing_is_solicited_during_a_view_change():
    cluster, victim, fetches = _victim_and_fetches()
    victim.view_changes.start(1)
    assert victim.view_changes.active
    for peer in cluster.replicas[1:]:
        victim.on_message(peer.node_id, _prepare_from(peer, 2))
    cluster.run(0.1)
    assert not fetches and not cluster.tracer.find("view_solicited")


def test_a_view_is_solicited_once_however_many_messages_show_it():
    cluster, victim, fetches = _victim_and_fetches()
    # Keep the answers away so the victim stays in view 0.
    cluster.network.add_filter(
        lambda s, d, m: getattr(m, "kind", "") != "cert_reply")
    for seq in range(1, 40):
        for peer in cluster.replicas[1:]:
            victim.on_message(peer.node_id, _prepare_from(peer, 1, seq))
            com = Commit(1, seq, b"d" * 32, peer.node_id)
            victim.on_message(peer.node_id, authenticate(
                peer, peer.other_replicas, com))
    cluster.run(1.0)
    assert victim.view == 0
    assert len(cluster.tracer.find("view_solicited")) == 1
    assert [dst for _, dst, _ in fetches] == list(victim.other_replicas)
    # A higher view shown by f+1 peers is a new question.
    for peer in cluster.replicas[1:3]:
        victim.on_message(peer.node_id, _prepare_from(peer, 2))
    assert [e.detail["view"] for e in cluster.tracer.find("view_solicited")] \
        == [1, 2]


def test_late_entrant_skips_reproposals_under_its_stable_checkpoint():
    """A replica that enters a view late, with a stable checkpoint above
    some of the NEW-VIEW's re-proposals, creates no log slot at or under
    its low-water mark and sends no PREPARE there; the re-proposals
    above it are prepared as before."""
    from repro.bft.messages import ViewChange
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    for i in range(4):
        client.call(put(i, b"v%d" % i))
    cluster.run(1.0)
    entrant = cluster.replicas[2]
    assert entrant.last_stable == 4 and not entrant.is_primary
    prepares = _sent(cluster, "prepare")
    # The view change it missed was decided when the group's stable
    # checkpoint was still 0: seqs 1..6 are re-proposed.
    vcs = tuple(ViewChange(1, 0, (), (), rid)
                for rid in cluster.config.replica_ids[:3])
    pps = [PrePrepare(1, seq, (Request.null(),), b"") for seq in range(1, 7)]
    entrant.view_changes._enter_view(1, vcs, pps)
    cluster.run(0.1)
    assert entrant.view == 1
    assert all(seq > entrant.last_stable for seq in entrant.log.seqs())
    assert {(m.view, m.seq) for src, _, m in prepares
            if src == entrant.node_id} == {(1, 5), (1, 6)}
    for seq in (5, 6):
        assert entrant.log.get(seq).pre_prepare is pps[seq - 1]


def test_tracer_find_and_counters():
    tracer = Tracer()
    tracer.emit(1.0, "n1", "vc_timeout", 1)
    tracer.emit(2.0, "n2", "vc_timeout", 2)
    tracer.emit(3.0, "n1", "new_view_accepted", 2)
    assert tracer.counters["vc_timeout"] == 2
    assert len(tracer.find("vc_timeout")) == 2
    assert len(tracer.find("vc_timeout", source="n1")) == 1
    assert tracer.first("new_view_accepted").time == 3.0
    assert tracer.first("new_view_rejected") is None
    tracer.observe("lap", 0.5)
    assert tracer.metrics.histograms["lap"].sum == 0.5
    tracer.clear()
    assert not tracer.events and not tracer.counters


def test_tracer_event_cap():
    tracer = ring_tracer(3)
    for i in range(10):
        tracer.emit(float(i), "n", "prepared", i)
    assert len(tracer.events) == 3
    assert tracer.counters["prepared"] == 10  # counters keep counting
