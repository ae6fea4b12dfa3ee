"""BFT normal-case protocol: ordering, execution, replies, de-duplication."""

import pytest

from repro.bft.statemachine import InMemoryStateManager
from tests.conftest import make_kv_cluster

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def test_single_write_executes_on_all_replicas(kv_cluster, kv_client):
    result = kv_client.call(put(3, b"hello"))
    assert result == b"ok"
    for replica in kv_cluster.replicas:
        assert replica.state.values[3] == b"hello"
        assert replica.last_executed == 1


def test_read_returns_written_value(kv_cluster, kv_client):
    kv_client.call(put(7, b"value7"))
    assert kv_client.call(get(7)) == b"value7"


def test_sequence_of_writes_all_replicas_agree(kv_cluster, kv_client):
    for i in range(10):
        kv_client.call(put(i, b"v%d" % i))
    states = [tuple(r.state.values) for r in kv_cluster.replicas]
    assert len(set(states)) == 1
    assert states[0][4] == b"v4"


def test_replicas_execute_same_order(kv_cluster, kv_client):
    for i in range(6):
        kv_client.call(put(i % 2, b"x%d" % i))
    histories = [tuple((e.detail["seq"], e.detail["request_id"],
                        e.detail["result"])
                       for e in kv_cluster.tracer.find("executed", r.node_id))
                 for r in kv_cluster.replicas]
    assert len(set(histories)) == 1
    assert len(histories[0]) == 6


def test_multiple_clients_interleave_consistently(kv_cluster):
    c1 = kv_cluster.add_client("clientA")
    c2 = kv_cluster.add_client("clientB")
    c1.call(put(0, b"a"))
    c2.call(put(1, b"b"))
    c1.call(put(2, b"c"))
    states = [tuple(r.state.values[:3]) for r in kv_cluster.replicas]
    assert set(states) == {(b"a", b"b", b"c")}


def test_client_accepts_with_quorum_of_matching_replies(kv_cluster, kv_client):
    # f=1: acceptance requires f+1=2 matching replies; just verify a normal
    # call accepted and the tracer saw executions at >= quorum replicas.
    kv_client.call(put(0, b"x"))
    executed = {e.source for e in kv_cluster.tracer.find("executed")}
    assert len(executed) >= kv_cluster.config.quorum


def test_read_only_optimization_single_round(kv_cluster, kv_client):
    kv_client.call(put(5, b"ro"))
    kv_cluster.tracer.clear()
    result = kv_client.call(get(5), read_only=True)
    assert result == b"ro"
    # Read-only ops never go through ordering: no pre-prepare was sent.
    assert not kv_cluster.tracer.find("pre_prepare_sent")
    assert len(kv_cluster.tracer.find("read_only_executed")) >= \
        kv_cluster.config.quorum


def test_read_only_disabled_goes_through_ordering():
    cluster = make_kv_cluster(read_only_optimization=False)
    client = cluster.add_client("client0")
    client.call(put(1, b"v"))
    cluster.tracer.clear()
    assert client.call(get(1), read_only=True) == b"v"
    assert cluster.tracer.find("pre_prepare_sent")


def test_request_deduplication_on_retransmit(kv_cluster, kv_client):
    """A retransmitted request must not execute twice."""
    kv_client.call(put(0, b"first"))
    raw = kv_cluster.clients["client0"]
    # Simulate a stale duplicate arriving at the primary.
    from repro.bft.messages import Request
    from repro.crypto.mac import Authenticator
    dup = Request("client0", 1, put(0, b"first"))
    dup.auth = Authenticator.create(kv_cluster.registry, "client0",
                                    kv_cluster.config.replica_ids, dup.body())
    kv_cluster.network.send("client0", kv_cluster.primary.node_id, dup)
    kv_cluster.run(1.0)
    for replica in kv_cluster.replicas:
        runs = [e for e in kv_cluster.tracer.find("executed", replica.node_id)
                if (e.detail["client"], e.detail["request_id"])
                == ("client0", 1)]
        assert len(runs) == 1


def test_batching_under_load():
    """Multiple clients issuing concurrently get batched into fewer
    pre-prepares than requests."""
    cluster = make_kv_cluster(batch_max=8)
    clients = [cluster.add_client(f"c{i}") for i in range(6)]
    results = {}
    for i, sync in enumerate(clients):
        sync.client.invoke(put(i, b"b%d" % i),
                           lambda res, i=i: results.__setitem__(i, res))
    cluster.run_until(lambda: len(results) == 6)
    assert all(res == b"ok" for res in results.values())
    pps = cluster.tracer.find("pre_prepare_sent")
    total_batched = sum(e.detail["batch"] for e in pps)
    assert total_batched == 6
    assert len(pps) < 6  # at least some batching happened


def test_tentative_reply_digests_only_one_full_result(kv_cluster, kv_client):
    """With the reply optimization, exactly one replica sends the full
    result; the client still accepts."""
    assert kv_client.call(put(9, b"z")) == b"ok"


def test_client_cannot_issue_concurrent_requests(kv_cluster, kv_client):
    kv_client.client.invoke(put(0, b"a"), lambda res: None)
    with pytest.raises(RuntimeError):
        kv_client.client.invoke(put(1, b"b"), lambda res: None)


def test_many_requests_cross_checkpoint_boundaries(kv_cluster, kv_client):
    """checkpoint_interval=4: 10 requests force two stable checkpoints and
    log truncation."""
    for i in range(10):
        kv_client.call(put(i % 4, b"n%d" % i))
    kv_cluster.run(1.0)
    for replica in kv_cluster.replicas:
        assert replica.last_stable >= 8
        assert all(s > replica.last_stable for s in replica.log.seqs())


def test_empty_op_executes_as_null(kv_cluster, kv_client):
    assert kv_client.call(b"") == b"null"
