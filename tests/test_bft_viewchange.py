"""View changes: replacing crashed or Byzantine primaries."""

from repro.bft.faults import (
    BadNondetBehavior,
    EquivocatingPrimaryBehavior,
    MuteBehavior,
)
from repro.bft.statemachine import InMemoryStateManager
from tests.conftest import make_kv_cluster

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def test_crashed_primary_replaced_and_request_completes():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].crash()
    result = client.call(put(0, b"survived"))
    assert result == b"ok"
    live = [r for r in cluster.replicas if not r.crashed]
    assert all(r.view >= 1 for r in live)
    assert all(r.state.values[0] == b"survived" for r in live)
    assert cluster.tracer.find("new_view_accepted")


def test_service_continues_after_view_change():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    client.call(put(0, b"before"))
    cluster.replicas[0].crash()
    client.call(put(1, b"during"))
    client.call(put(2, b"after"))
    live = [r for r in cluster.replicas if not r.crashed]
    for r in live:
        assert r.state.values[:3] == [b"before", b"during", b"after"]


def test_mute_primary_triggers_view_change():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].behavior = MuteBehavior()
    assert client.call(put(0, b"x")) == b"ok"
    assert any(r.view >= 1 for r in cluster.replicas[1:])


def test_equivocating_primary_never_splits_state():
    """A primary sending conflicting orderings must not make correct
    replicas diverge.  The replica fed the conflicting pre-prepare cannot
    commit (no quorum for its digest) — it falls behind and converges via
    state transfer at the next stable checkpoint; it never executes the
    conflicting request."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].behavior = EquivocatingPrimaryBehavior()
    assert client.call(put(0, b"safe")) == b"ok"
    # At no point may two correct replicas hold different values for an
    # executed slot: any replica that executed slot 0 saw b"safe".
    executed_values = {r.state.values[0] for r in cluster.replicas[1:]
                       if r.last_executed >= 1}
    assert executed_values <= {b"safe"}
    # Make the primary honest again and drive past a checkpoint so the
    # lagging replica state-transfers.
    from repro.bft.faults import HONEST
    cluster.replicas[0].behavior = HONEST
    for i in range(1, 6):
        client.call(put(i, b"c%d" % i))
    cluster.run(5.0)
    values = {tuple(r.state.values[:6]) for r in cluster.replicas[1:]}
    assert len(values) == 1
    assert cluster.replicas[1].state.values[0] == b"safe"


def test_bad_nondet_primary_rejected_then_replaced():
    """check_nondet rejects the faulty proposal; the view change installs
    an honest primary and the request completes."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].behavior = BadNondetBehavior(b"\xde\xad")
    assert client.call(put(0, b"ok-anyway")) == b"ok"
    assert cluster.tracer.find("nondet_rejected")
    assert any(r.view >= 1 for r in cluster.replicas[1:])


def test_successive_primary_failures_walk_views():
    cluster = make_kv_cluster(view_change_timeout=0.4,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].crash()
    cluster.replicas[1].crash()
    # Only 2 of 4 alive: cannot commit (needs 3). Revive one non-primary.
    cluster.replicas[1].restart_node()
    result = client.call(put(0, b"deep"))
    assert result == b"ok"
    live = [r for r in cluster.replicas if not r.crashed]
    assert all(r.state.values[0] == b"deep" for r in live)


def test_view_change_preserves_committed_requests():
    """Requests committed before the view change survive it (the
    re-proposal logic must carry prepared batches forward)."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    for i in range(5):
        client.call(put(i, b"v%d" % i))
    cluster.replicas[0].crash()
    client.call(put(5, b"v5"))
    live = [r for r in cluster.replicas if not r.crashed]
    for r in live:
        assert r.state.values[:6] == [b"v%d" % i for i in range(6)]


def test_executed_requests_not_reexecuted_after_view_change():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    for i in range(3):
        client.call(put(0, b"w%d" % i))
    cluster.replicas[0].crash()
    client.call(put(1, b"post"))
    for r in cluster.replicas[1:]:
        runs = [(e.detail["client"], e.detail["request_id"])
                for e in cluster.tracer.find("executed", r.node_id)]
        # Each of the four distinct writes executed exactly once.
        assert sorted(runs) == [("client0", i) for i in range(1, 5)]


def test_view_change_timer_does_not_fire_when_idle():
    cluster = make_kv_cluster(view_change_timeout=0.2)
    client = cluster.add_client("client0")
    client.call(put(0, b"x"))
    cluster.run(5.0)
    assert all(r.view == 0 for r in cluster.replicas)


def test_join_rule_threshold_is_weak_quorum():
    """The liveness rule drags a replica into a view change only once a
    weak quorum (f+1, guaranteeing one correct proposer) wants the view
    — a single view-change message must not move it (regression for the
    join threshold, now spelled ``config.weak_quorum``)."""
    cluster = make_kv_cluster(view_change_timeout=60.0)
    bystander = cluster.replicas[3]
    assert cluster.config.weak_quorum == 2
    # One replica alone asks for view 1: below the weak quorum.
    cluster.replicas[1].view_changes.start(1)
    cluster.run(1.0)
    assert not bystander.view_changes.active
    assert bystander.view == 0
    # A second request reaches f+1 = weak quorum: the bystander joins
    # (and the view change then completes) without its own 60 s timer
    # ever firing.
    cluster.replicas[2].view_changes.start(1)
    cluster.run(1.0)
    assert bystander.view == 1


# -- a signature is checked once per replica ------------------------------------


def test_a_signature_is_checked_and_charged_once_per_replica(monkeypatch):
    from repro.bft.messages import CheckpointMsg
    cluster = make_kv_cluster()
    signer, victim, other = cluster.replicas[1:]
    msg = signer.sign_msg(CheckpointMsg(4, b"r" * 32, b"t" * 32,
                                        signer.node_id))
    charged = []
    monkeypatch.setattr(victim, "charge", charged.append)
    assert victim.verify_sig(signer.node_id, msg)
    assert victim.verify_sig(signer.node_id, msg)        # remembered: free
    assert len(charged) == 1
    # A forged signature over the remembered body is checked, charged and
    # rejected every time: a failed check is never remembered.
    forged = CheckpointMsg(4, b"r" * 32, b"t" * 32, signer.node_id)
    forged.sig = b"\0" * 32
    assert not victim.verify_sig(signer.node_id, forged)
    assert not victim.verify_sig(signer.node_id, forged)
    assert len(charged) == 3
    # The same bytes and signature under another signer's name too.
    assert not victim.verify_sig(other.node_id, msg)
    assert len(charged) == 4
    assert list(victim.verified_sigs) == [
        (signer.node_id, msg.body(), msg.sig)]


def test_the_signature_memo_is_bounded_and_emptied_by_a_restart(
        monkeypatch):
    """Over a long run with checkpoints and two view changes no replica
    remembers more than the config's bound (it reaches it: the oldest
    entries go), and proactive recovery restarts with nothing trusted."""
    cluster = make_kv_cluster(checkpoint_interval=2, view_change_timeout=0.3,
                              client_retry_timeout=0.2, reboot_delay=0.2)
    client = cluster.add_client("client0")
    bound = cluster.config.verified_sig_bound
    assert bound == 4 * (2 + 1 + 1 + 1) + 1
    sizes = []
    faults = {30: cluster.replicas[0].crash,
              45: cluster.replicas[0].restart_node,
              60: cluster.replicas[1].crash}
    for i in range(80):
        if i in faults:
            faults[i]()
        client.call(put(i % 8, b"v%d" % i))
        sizes += [len(r.verified_sigs) for r in cluster.replicas]
    assert max(sizes) == bound
    assert [r.view for r in cluster.replicas] == [2, 1, 2, 2]

    recovering = cluster.replicas[3]
    at_restart = []
    real_restart = recovering.state.restart
    monkeypatch.setattr(recovering.state, "restart", lambda: (
        at_restart.append(len(recovering.verified_sigs)), real_restart())[1])
    assert recovering.verified_sigs
    recovering.recovery.start_recovery()
    cluster.run(2.0)
    assert at_restart == [0]
    assert not recovering.recovery.recovering


# -- NEW-VIEW carries view-change summaries -------------------------------------


def _view_change_without_new_views_to(victim_index):
    """Six puts (stable checkpoint at 4, batches 5 and 6 prepared above
    it), then three replicas move to view 1; every NEW-VIEW to the
    fourth is dropped, so it stays in view 0 while they enter view 1."""
    cluster = make_kv_cluster(view_change_timeout=0.3,
                              client_retry_timeout=0.2)
    client = cluster.add_client("client0")
    for i in range(6):
        client.call(put(i, b"v%d" % i))
    victim = cluster.replicas[victim_index]
    cluster.network.add_filter(lambda s, d, m: not (
        d == victim.node_id and getattr(m, "kind", "") == "new_view"))
    for r in cluster.replicas:
        if r is not victim:
            r.view_changes.start(1)
    assert client.call(put(6, b"v6")) == b"ok"
    new_primary = cluster.replicas[1]
    assert new_primary.view == 1 and victim.view == 0
    return cluster, victim, new_primary.view_changes.last_new_view


def test_new_view_embeds_view_changes_as_their_signatures_cover_them():
    _, _, nv = _view_change_without_new_views_to(3)
    proofs = [p for vc in nv.view_changes for p in vc.prepared]
    assert proofs and all(p.pre_prepare is None for p in proofs)
    # Re-proposals keep their requests: a backup needs no fetch.
    assert [pp.seq for pp in nv.pre_prepares] == [5, 6]
    assert all(not pp.requests[0].is_null for pp in nv.pre_prepares)


def test_a_new_view_whose_reproposals_differ_is_rejected():
    """Backups check the O set against the summaries: a batch changed,
    a certified seq left out (below max-s it stalls execution, at max-s
    the primary would reuse a seq 2f+1 may have committed), a seq twice
    or a null moved into a certified slot is each rejected."""
    from repro.bft.messages import NewView, PrePrepare, Request
    cluster, victim, nv = _view_change_without_new_views_to(3)
    new_primary = cluster.replicas[1]
    first, second = nv.pre_prepares
    forged_o_sets = [
        (PrePrepare(1, 5, (Request("mallory", 1, b"x"),), first.nondet),
         second),
        (PrePrepare(1, 5, first.requests, b"other nondet"), second),
        (PrePrepare(1, 5, (Request.null(),), b""), second),
        (PrePrepare(0, 5, first.requests, first.nondet), second),
        (second,),
        (first,),
        (),
        (first, first, second),
        (first, second, PrePrepare(1, 7, (Request.null(),), b"")),
    ]
    for o_set in forged_o_sets:
        forged = new_primary.sign_msg(NewView(
            1, nv.view_changes, o_set, new_primary.node_id))
        victim.on_message(new_primary.node_id, forged)
        assert victim.view == 0
    assert len(cluster.tracer.find("new_view_rejected")) == len(forged_o_sets)
    victim.on_message(new_primary.node_id, nv)
    assert victim.view == 1


def test_a_stale_view_change_is_answered_once_per_sender_and_view(
        monkeypatch):
    """A replica that missed the NEW-VIEW gets it resent when its
    VIEW-CHANGE arrives, but repeating that VIEW-CHANGE buys nothing more,
    and none of them costs the answerer a signature check."""
    from repro.bft.costs import CostModel
    cluster, lagger, nv = _view_change_without_new_views_to(3)
    answerer = cluster.replicas[2]
    answerer.costs = CostModel(signature=1e-3)
    resent = []
    monkeypatch.setattr(answerer, "send",
                        lambda dst, msg, size=None: resent.append((dst, msg)))
    stale = lagger.view_changes.received[1][lagger.node_id]
    answerer.verified_sigs.clear()          # nothing remembered: all paid
    before = answerer.busy_until
    for _ in range(5):
        answerer.on_message(lagger.node_id, stale)
    assert resent == [(lagger.node_id, nv)]
    assert answerer.busy_until == before and not answerer.verified_sigs


def test_a_new_view_forwarded_in_a_cert_reply_brings_a_lagger_in():
    """The lagger asks for certificates, and the NEW-VIEW
    riding in a CERT-REPLY (not a NEW-VIEW message) brings it into the
    view, its VIEW-CHANGEs still summaries."""
    cluster, lagger, nv = _view_change_without_new_views_to(3)
    lagger.transfer.solicit_certs()
    cluster.run(0.1)
    assert lagger.view == 1
    assert lagger.view_changes.last_new_view is nv


# -- the new-view timer is armed at 2f+1 ------------------------------------------


def test_a_replica_cut_off_alone_waits_at_the_next_view_and_rejoins(
        monkeypatch):
    """Without 2f+1 VIEW-CHANGEs a replica does not climb: cut off alone
    it stays at v+1 retransmitting its VIEW-CHANGE, converges with the
    group's state once healed, and is the third VIEW-CHANGE when the
    group next needs one."""
    cluster = make_kv_cluster(view_change_timeout=0.2,
                              client_retry_timeout=0.1)
    client = cluster.add_client("client0")
    client.call(put(0, b"a"))
    loner = cluster.replicas[3]
    for peer in cluster.network.node_ids():
        if peer != loner.node_id:
            cluster.network.partition(loner.node_id, peer)
    sent = []
    real_multicast = loner.multicast
    monkeypatch.setattr(loner, "multicast", lambda dsts, msg: (
        sent.append(msg.kind), real_multicast(dsts, msg))[1])
    loner.view_changes.start(1)            # its view-change timer fired
    cluster.run(2.9)
    assert (loner.view, loner.view_changes.target_view) == (0, 1)
    assert sent == ["view_change"] * 15    # sent, then every 0.2 s
    assert not cluster.tracer.find("new_view_timeout")

    cluster.network.heal_all()
    for i in range(1, 9):
        client.call(put(i, b"v%d" % i))
    cluster.run(1.0)
    assert {r.view for r in cluster.replicas} == {0}
    assert len({tuple(r.state.values[:9]) for r in cluster.replicas}) == 1

    cluster.replicas[0].crash()
    assert client.call(put(9, b"v9")) == b"ok"
    assert [r.view for r in cluster.replicas[1:]] == [1, 1, 1]
    assert not cluster.tracer.find("new_view_timeout")
