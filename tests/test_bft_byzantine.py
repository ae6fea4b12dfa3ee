"""Byzantine replica behaviors: safety under arbitrary faults within f."""

from repro.bft.faults import (
    ForgedAuthBehavior,
    MuteBehavior,
    UnauthReplyBehavior,
    WrongReplyBehavior,
)
from repro.bft.messages import Request
from repro.bft.statemachine import InMemoryStateManager
from repro.crypto import Authenticator
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
