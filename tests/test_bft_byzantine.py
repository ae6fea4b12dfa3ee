"""Byzantine replica behaviors: safety under arbitrary faults within f."""

from repro.bft.faults import (
    ForgedAuthBehavior,
    MuteBehavior,
    UnauthReplyBehavior,
    WrongReplyBehavior,
)
from repro.bft.messages import (
    CheckpointMsg,
    Commit,
    FetchMeta,
    FetchObject,
    FetchTable,
    Prepare,
    Request,
)
from repro.bft.statemachine import InMemoryStateManager
from repro.crypto.mac import Authenticator
from repro.crypto.signatures import sign
from tests.conftest import make_kv_cluster

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def test_wrong_reply_from_one_replica_outvoted():
    """f=1 lying backup: the client's f+1 vote rejects the bad result."""
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    cluster.replicas[2].behavior = WrongReplyBehavior()
    assert client.call(put(0, b"true")) == b"ok"
    assert client.call(get(0)) == b"true"


def test_wrong_reply_from_designated_replica_still_correct():
    """Even when the replica sending the full result lies, the digest
    votes from correct replicas reject it and a retransmission or another
    full reply wins."""
    cluster = make_kv_cluster(client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    for victim in range(4):
        fresh = make_kv_cluster(client_retry_timeout=0.3)
        c = fresh.add_client("client0")
        fresh.replicas[victim].behavior = WrongReplyBehavior()
        assert c.call(put(1, b"v-%d" % victim)) == b"ok"


def test_forged_authenticators_ignored():
    """A replica sending garbage MACs is equivalent to a mute replica."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[1].behavior = ForgedAuthBehavior()
    assert client.call(put(0, b"x")) == b"ok"
    for r in (cluster.replicas[0], cluster.replicas[2], cluster.replicas[3]):
        assert r.state.values[0] == b"x"


def test_mute_backup_does_not_block_progress():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    cluster.replicas[3].behavior = MuteBehavior()
    for i in range(8):
        assert client.call(put(i, b"m%d" % i)) == b"ok"


def test_two_faults_with_f_one_can_block_liveness_but_not_safety():
    """With 2 mute replicas out of 4 (beyond f=1), requests cannot commit;
    but no wrong result is ever accepted."""
    cluster = make_kv_cluster(client_retry_timeout=0.2,
                              view_change_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[2].behavior = MuteBehavior()
    cluster.replicas[3].behavior = MuteBehavior()
    box = {}
    client.client.invoke(put(0, b"never"), lambda res: box.update(r=res))
    cluster.run(10.0)
    assert "r" not in box  # no reply quorum, so no acceptance
    # Safety: no correct replica executed it either way is fine; the key
    # assertion is that the client accepted nothing.


def test_byzantine_client_cannot_break_replica_invariants():
    """A client sending malformed ops gets a deterministic error result;
    replicas neither crash nor diverge."""
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    client.call(put(0, b"good"))
    result = client.call(b"\x00garbage-op")
    assert result.startswith(b"__error__:")
    # Cluster still serves correct clients identically.
    client2 = cluster.add_client("client1")
    assert client2.call(get(0)) == b"good"
    states = {tuple(r.state.values) for r in cluster.replicas}
    assert len(states) == 1


def test_unauthenticated_replies_cannot_influence_acceptance():
    """Regression for the quorum-vote bug: a replica stripping the MAC
    from its (wrong) replies must be treated as mute, on both the
    ordered f+1 path and the tentative 2f+1 read-only path."""
    cluster = make_kv_cluster(client_retry_timeout=0.3,
                              view_change_timeout=0.5)
    client = cluster.add_client("client0")
    cluster.replicas[1].behavior = UnauthReplyBehavior()
    assert client.call(put(0, b"x")) == b"ok"
    assert client.call(get(0)) == b"x"
    assert client.call(get(0), read_only=True) == b"x"
    for r in (cluster.replicas[0], cluster.replicas[2], cluster.replicas[3]):
        assert r.state.values[0] == b"x"


def test_read_only_with_one_lying_replica():
    """2f+1 tentative quorum: a single liar cannot fool a read."""
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    client.call(put(2, b"secret"))
    cluster.replicas[1].behavior = WrongReplyBehavior()
    assert client.call(get(2), read_only=True) == b"secret"


def test_request_without_authenticator_is_never_ordered():
    """A request is authenticated by its *client*: one that arrives with
    no authenticator at all proves nothing about who sent it, so any
    network party could otherwise have operations ordered and executed
    under a victim's id.  It is rejected at the primary and at a backup
    alike (which would relay it); the same request carrying the
    victim's real authenticator goes through."""
    cluster = make_kv_cluster()
    cluster.add_client("victim")
    primary, backup = cluster.replicas[0], cluster.replicas[1]
    wire = []
    cluster.network.add_filter(
        lambda src, dst, msg: wire.append((src, dst, msg.kind)) or True)

    forged = Request("victim", 1, put(0, b"stolen"))
    assert forged.auth is None
    for target in (primary, backup):
        cluster.network.send("mallory", target.node_id, forged)
    cluster.run(1.0)

    counters = cluster.tracer.counters
    assert counters["bad_request_auth"] == 2
    assert counters["pre_prepare_sent"] == 0 and counters["executed"] == 0
    # Nothing but the two injected copies ever hit the wire: no relay to
    # the primary, no pre-prepare, no reply to the victim.
    assert wire == [("mallory", primary.node_id, "request"),
                    ("mallory", backup.node_id, "request")]
    for r in cluster.replicas:
        assert r.state.values[0] == b"" and not r.client_table
        assert not r.pending and not r.waiting and len(r.log) == 0

    genuine = Request("victim", 1, put(0, b"mine"))
    genuine.auth = Authenticator.create(
        cluster.registry, "victim", cluster.config.replica_ids,
        genuine.digest())
    cluster.network.send("mallory", backup.node_id, genuine)  # relayed
    cluster.run(1.0)
    assert counters["bad_request_auth"] == 2
    assert counters["pre_prepare_sent"] == 1 and counters["executed"] == 4
    assert sum(kind == "reply" and dst == "victim"
               for _, dst, kind in wire) == 4
    for r in cluster.replicas:
        assert r.state.values[0] == b"mine"


# -- the wire contract: a client is not a replica --------------------------------


def _cast_by(cluster, client_id, msg):
    """``msg`` authenticated by ``client_id`` as its kind's principal
    would be: a MAC authenticator for every replica, or a signature."""
    if msg.kind == "checkpoint":
        msg.sig = sign(cluster.registry, client_id, msg.body())
    else:
        msg.auth = Authenticator.create(cluster.registry, client_id,
                                        cluster.config.replica_ids,
                                        msg.digest())
    return msg


def test_a_clients_votes_never_enter_a_vote_set():
    """An enrolled client can MAC and sign under its own name, so a
    PREPARE, COMMIT or CHECKPOINT naming it as ``replica_id`` has a
    valid proof: only membership refuses it.  Without that, a backup
    cut off from the other backups' PREPAREs prepared on its own PREPARE
    plus one client's."""
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    cluster.add_client("mallory")
    victim = cluster.replicas[3]
    cluster.network.add_filter(lambda src, dst, msg: not (
        dst == victim.node_id and getattr(msg, "kind", "") == "prepare"
        and src in cluster.config.replica_ids))
    assert client.call(put(0, b"x")) == b"ok"
    slot = victim.log.get(1)
    assert slot.matching_prepares() == 1 and not slot.prepared

    digest = slot.pre_prepare.batch_digest()
    for msg in (Prepare(0, 1, digest, "mallory"),
                Commit(0, 1, digest, "mallory"),
                CheckpointMsg(4, b"r" * 32, b"t" * 32, "mallory")):
        for r in cluster.replicas:
            cluster.network.send("mallory", r.node_id,
                                 _cast_by(cluster, "mallory", msg))
    cluster.run(0.1)
    assert not slot.prepared and slot.matching_prepares() == 1
    for r in cluster.replicas:
        assert all("mallory" not in s.prepares and "mallory" not in s.commits
                   for s in map(r.log.get, r.log.seqs()))
        assert all("mallory" not in votes
                   for votes in r.checkpoint_msgs.values())


def test_a_clients_prepare_is_refused_as_the_first_message_of_its_kind():
    """The first delivery of a kind to a fresh replica passes the same
    gate as every later one: no path dispatches around it."""
    cluster = make_kv_cluster()
    cluster.add_client("mallory")
    victim = cluster.replicas[1]
    own = _cast_by(cluster, "mallory", Prepare(0, 1, b"d" * 32, "mallory"))
    cluster.network.send("mallory", victim.node_id, own)
    cluster.run(0.1)
    assert victim.log.get(1) is None and len(victim.log) == 0


def test_state_fetches_are_answered_to_group_members_only():
    """FETCH-META, FETCH-OBJECT and FETCH-TABLE read the abstract state
    and the reply cache: a client, under its own name or a replica's,
    gets nothing; a replica asking for itself gets each answer."""
    cluster = make_kv_cluster()
    cluster.add_client("mallory")
    donor = cluster.replicas[0]
    answers = []

    def watch(src, dst, msg):
        if src == donor.node_id:
            answers.append((dst, msg.kind))
        return True

    cluster.network.add_filter(watch)

    def fetches(asker):
        return (FetchMeta(asker, 0, 0, 0), FetchObject(asker, 0, 0),
                FetchTable(asker, 0))

    for asker in ("mallory", "replica1"):
        for msg in fetches(asker):
            cluster.network.send("mallory", donor.node_id, msg)
    cluster.run(0.1)
    assert answers == []
    for msg in fetches("replica1"):
        cluster.network.send("replica1", donor.node_id, msg)
    cluster.run(0.1)
    assert sorted(answers) == [("replica1", "meta_reply"),
                               ("replica1", "object_reply"),
                               ("replica1", "table_reply")]
