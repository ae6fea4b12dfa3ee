"""State transfer: catching up out-of-date replicas, repairing corruption."""

from repro.bft.costs import CostModel
from repro.bft.messages import FetchCert, FetchTable
from repro.bft.statemachine import InMemoryStateManager
from tests.conftest import make_kv_cluster

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def run_writes(cluster, client, count, start=0):
    for i in range(count):
        client.call(put((start + i) % 16, b"w%d" % (start + i)))


def test_lagging_replica_catches_up_via_state_transfer():
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    # Disconnect replica 3 (n=4 still has 2f+1=3 live).
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 12)
    assert lagger.last_executed == 0
    cluster.network.heal_all()
    # More traffic delivers checkpoint messages; the lagger transfers.
    run_writes(cluster, client, 4, start=12)
    cluster.run(5.0)
    assert lagger.last_executed >= 12
    reference = cluster.replicas[0]
    assert lagger.state.values == reference.state.values
    assert cluster.tracer.find("transfer_complete", source=lagger.node_id)


def test_transfer_fetches_only_changed_objects():
    """Hierarchical transfer: a lagger missing writes to 3 slots fetches
    only those objects, not the whole array."""
    cluster = make_kv_cluster(checkpoint_interval=4, size=64)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 4)  # everyone at checkpoint 4
    cluster.run(1.0)
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    # Writes touch only slots 0..2.
    for i in range(8):
        client.call(put(i % 3, b"only%d" % i))
    cluster.network.heal_all()
    for i in range(4):
        client.call(put(i % 3, b"more%d" % i))
    cluster.run(5.0)
    assert lagger.state.values == cluster.replicas[0].state.values
    assert 0 < lagger.transfer.objects_fetched_total <= 6


def test_corrupt_replica_detected_and_repaired():
    """A replica whose concrete state silently corrupts diverges at its
    next checkpoint and repairs itself from the others."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 2)
    victim = cluster.replicas[2]
    victim.state.values[0] = b"CORRUPTED"
    victim.state.mark_all_dirty()
    run_writes(cluster, client, 6, start=2)
    cluster.run(5.0)
    assert victim.state.values == cluster.replicas[0].state.values
    assert b"CORRUPTED" not in victim.state.values


def test_transfer_survives_lying_donor():
    """A Byzantine donor sending garbage objects cannot corrupt the
    fetcher: digests fail, the donor is rotated, transfer completes."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 8)
    cluster.network.heal_all()

    # First donor the lagger will ask is replicas[0]; make it lie.
    from repro.bft.messages import ObjectReply

    def corrupt_object_replies(src, dst, msg):
        if (src == cluster.replicas[0].node_id and dst == lagger.node_id
                and getattr(msg, "kind", "") == "object_reply"):
            msg.value = b"LIES" + msg.value
        return True

    cluster.network.add_filter(corrupt_object_replies)
    run_writes(cluster, client, 4, start=8)
    cluster.run(10.0)
    assert lagger.state.values == cluster.replicas[1].state.values
    assert b"LIES" not in b"".join(v for v in lagger.state.values)
    assert cluster.tracer.find("transfer_bad_object")
    assert cluster.tracer.find("transfer_donor_switch")


def test_client_reply_cache_transfers_with_state():
    """After transfer, the lagger's reply cache matches, so duplicate
    requests are not re-executed by recovered replicas."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 8)
    cluster.network.heal_all()
    run_writes(cluster, client, 4, start=8)
    cluster.run(5.0)
    assert lagger.client_table.get("client0") is not None
    ref = cluster.replicas[0]
    assert lagger.client_table["client0"][0] == ref.client_table["client0"][0]


def test_meta_walk_prunes_matching_partitions():
    """The fetcher never fetches metadata for subtrees whose digests match."""
    cluster = make_kv_cluster(checkpoint_interval=4, size=64)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 4)
    cluster.run(1.0)
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    for i in range(4):
        client.call(put(0, b"solo%d" % i))
    cluster.network.heal_all()
    before = cluster.network.messages_sent
    for i in range(4):
        client.call(put(0, b"post%d" % i))
    cluster.run(5.0)
    assert lagger.state.values == cluster.replicas[0].state.values
    # Only one object changed; at most a handful of fetches happened.
    assert lagger.transfer.objects_fetched_total <= 2


def test_serving_cert_and_table_charges_cpu():
    """A donor pays simulated CPU for every transfer reply it serves —
    including the certificate and reply-cache paths, so a replica
    bombarded with fetches cannot do free work (regression: these two
    handlers used to skip ``charge``, found by DEEP-COST)."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 8)
    cluster.run(1.0)
    donor = cluster.replicas[0]
    assert donor.stable_cert, "need a stable checkpoint to serve"
    seq = donor.last_stable
    assert seq in donor.table_checkpoints
    # The default test cost model is free; give digests a price so an
    # uncharged serving path shows up as zero CPU.
    donor.costs = CostModel(digest_fixed=1e-4, digest_per_byte=1e-7)
    before = donor.busy_until
    donor.transfer.on_fetch_cert("replica1", FetchCert("replica1", 1))
    after_cert = donor.busy_until
    assert after_cert > before
    donor.transfer.on_fetch_table("replica1", FetchTable("replica1", seq))
    assert donor.busy_until > after_cert


def test_fetch_cert_is_answered_to_group_members_only():
    """The answer to FETCH-CERT can be a whole NEW-VIEW (2f+1 signed
    view-changes and their pre-prepares), the largest message the
    protocol has: a two-field unauthenticated request from outside the
    group, or under another member's name, does not get one."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 8)
    cluster.run(1.0)
    donor = cluster.replicas[0]
    replies = []

    def watch(src, dst, msg):
        if getattr(msg, "kind", "") == "cert_reply":
            replies.append(dst)
        return True

    cluster.network.add_filter(watch)
    donor.on_message("client0", FetchCert("client0", 1))
    donor.on_message("client0", FetchCert("replica1", 1))
    donor.on_message("replica2", FetchCert("replica1", 1))
    cluster.run(0.1)
    assert replies == []
    donor.on_message("replica1", FetchCert("replica1", 1))
    cluster.run(0.1)
    assert replies == ["replica1"]


def test_cert_reply_with_a_stale_nonce_is_dropped_before_any_check():
    """A CERT-REPLY that does not answer the latest solicitation is
    dropped before its NEW-VIEW's signatures are paid for; the same
    reply under the current nonce starts the transfer."""
    from repro.bft.messages import CertReply
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids[:3]:
        cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 8)
    cluster.run(1.0)
    donor = cluster.replicas[0]
    assert donor.stable_cert and lagger.last_stable == 0
    lagger.costs = CostModel(signature=1e-3)
    lagger.transfer.solicit_certs()          # partitioned: nobody hears it
    nonce = lagger.transfer._cert_nonce
    before = lagger.busy_until
    for stale in (nonce - 1, nonce + 1):
        lagger.on_message(donor.node_id, CertReply(
            donor.node_id, stale, donor.stable_cert))
    assert lagger.busy_until == before and not lagger.transfer.active
    lagger.on_message(donor.node_id, CertReply(
        donor.node_id, nonce, donor.stable_cert))
    assert lagger.busy_until > before
    assert lagger.transfer.active
    assert lagger.transfer.target_seq == donor.last_stable


def test_forced_transfer_back_to_stable_forgets_what_it_rolled_back():
    """A forced transfer back to ``last_stable`` (recovery, divergence,
    ``rollback_via_transfer``) rewinds execution like an in-place
    rollback does: the cached reply the stable checkpoint certifies is
    not marked tentative on retransmission, and the CHECKPOINT taken on
    the rolled-back executions is not resent."""
    cluster = make_kv_cluster(checkpoint_interval=2, batch_max=1)
    client = cluster.add_client("client0")
    victim = cluster.replicas[1]
    requests, replies, checkpoints, cut = {}, [], [], []

    def tap(src, dst, msg):
        kind = getattr(msg, "kind", "")
        if kind == "request" and src == "client0":
            requests[msg.request_id] = msg
        elif kind == "reply" and src == victim.node_id:
            replies.append(msg)
        elif kind == "checkpoint" and src == victim.node_id:
            checkpoints.append(msg.seq)
        # Once cut, no CHECKPOINT arrives anywhere (6 is taken, never
        # stable, and the donors keep checkpoint 4 to serve) and no
        # COMMIT reaches the victim (what it executes stays tentative).
        return not cut or not (kind == "checkpoint" or (
            kind == "commit" and dst == victim.node_id))

    cluster.network.add_filter(tap)
    run_writes(cluster, client, 4)
    cluster.run(1.0)
    stable = victim.last_stable
    assert stable == 4 and victim.stable_cert
    cut.append(True)
    run_writes(cluster, client, 2, start=4)
    assert victim.last_executed == stable + 2
    assert victim.last_committed_exec == stable
    assert victim._latest_checkpoint_msg.seq == stable + 2
    # Its tentative slots never commit, so its timer would send it into
    # a view change alone; until a new view nothing replays.
    victim.view_changes.start(victim.view + 1)
    victim.transfer.initiate(stable, victim.stable_cert[0].root_digest,
                             victim.stable_cert, force=True)
    cluster.run(0.5)
    assert not victim.transfer.active and victim.last_executed == stable
    certified_id = victim.client_table["client0"][0]
    assert certified_id < max(requests)

    del replies[:], checkpoints[:]
    victim.on_message("client0", requests[certified_id])
    cluster.run(2 * cluster.config.view_change_timeout)
    assert [(m.request_id, m.tentative) for m in replies] \
        == [(certified_id, False)]
    assert checkpoints == []


# -- a replica that is down or behind costs one timeout ---------------------------


def test_a_donor_that_crashes_mid_transfer_is_dropped_within_one_period():
    """The donor answers the lagger's first fetch and crashes.  The
    lagger switches donor one RETRY_PERIOD after that answer, not after
    a first period that only notes progress and a second that sees
    none, and finishes the transfer from the next donor."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids[:3]:
        cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 8)
    cluster.run(1.0)
    cluster.network.heal_all()
    donor = cluster.replicas[0]
    crashed_at = []

    def answer_once_then_crash(src, dst, msg):
        if src == donor.node_id and dst == lagger.node_id \
                and getattr(msg, "kind", "").endswith("_reply") \
                and not crashed_at:
            crashed_at.append(cluster.scheduler.now)
            donor.crash()
        return True

    cluster.network.add_filter(answer_once_then_crash)
    lagger.transfer.initiate(donor.last_stable, donor.stable_cert[0].root_digest,
                             donor.stable_cert)
    assert lagger.transfer.donor == donor.node_id
    cluster.run(3.0)
    switch = cluster.tracer.find("transfer_donor_switch", source=lagger.node_id)
    assert crashed_at and switch
    assert switch[0].time - crashed_at[0] \
        < lagger.transfer.RETRY_PERIOD + 0.01
    assert not lagger.transfer.active
    assert lagger.state.values == cluster.replicas[1].state.values


def _fetching_lagger():
    """Replica 3 executes two writes and misses the next fourteen, so its
    stable checkpoint is 0 and its window ends at L = 8.  It then fetches
    the group's stable checkpoint 16 while its fetches are held back, and
    the group orders seqs 17 and 18 meanwhile.  Returns the cluster, the
    lagger and the list whose emptying releases the fetches."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    run_writes(cluster, client, 2)
    cluster.run(0.1)
    for other in cluster.config.replica_ids[:3]:
        cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 14, start=2)
    cluster.run(0.1)
    donor = cluster.replicas[0]
    assert (lagger.last_stable, donor.last_stable) == (0, 16)
    cluster.network.heal_all()
    stalled = [True]
    cluster.network.add_filter(lambda src, dst, msg: not (
        stalled and src == lagger.node_id
        and getattr(msg, "kind", "").startswith("fetch_")))
    lagger.transfer.initiate(16, donor.stable_cert[0].root_digest,
                             donor.stable_cert)
    run_writes(cluster, client, 2, start=16)
    assert lagger.transfer.active and donor.last_executed == 18
    return cluster, lagger, stalled


def test_a_fetching_replica_keeps_the_next_window():
    """The pre-prepares for 17 and 18 lie above the lagger's old
    high-water mark (0 + 8) but inside the window of the checkpoint it
    fetches (16 + 8): it logs and prepares them, and executes them the
    moment the transfer completes."""
    cluster, lagger, stalled = _fetching_lagger()
    assert [lagger.log.get(seq).prepared for seq in (17, 18)] == [True] * 2
    stalled.clear()
    cluster.run(3.0)
    done = cluster.tracer.find("transfer_complete", source=lagger.node_id)
    assert [e.detail["seq"] for e in done] == [16]
    executed = [e for e in cluster.tracer.find("executed", source=lagger.node_id)
                if e.detail["seq"] > 16]
    assert [e.detail["seq"] for e in executed] == [17, 18]
    assert {e.time for e in executed} == {done[0].time}
    assert lagger.state.values == cluster.replicas[0].state.values


def test_a_view_change_started_mid_transfer_reports_the_fetched_window():
    """A VIEW-CHANGE must report every slot its sender voted on, or a
    quorum of view changes can miss a batch that committed with its
    vote.  The fetching lagger voted on 17 and 18, above its own stable
    checkpoint's window (0, 8]: it reports the certified checkpoint 16 it
    fetches and both slots, and its peers accept that VIEW-CHANGE.  The
    slots 1 and 2 the checkpoint supersedes left its log at the start of
    the transfer, so the log stays within one window."""
    cluster, lagger, _ = _fetching_lagger()
    assert lagger.log.seqs() == [17, 18]
    lagger.view_changes.start(lagger.view + 1)
    vc = lagger.view_changes.received[lagger.view + 1][lagger.node_id]
    assert (vc.last_stable, vc.checkpoint_proof) == (16, lagger.transfer.cert)
    assert [proof.seq for proof in vc.prepared] == [17, 18]
    peer = cluster.replicas[0]
    assert peer.view_changes._valid_view_change(vc)
