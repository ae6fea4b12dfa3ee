"""A work-and-determinism fence around the normal-case path.

The perf ledger (``benchmarks/ledger``) compares simulated behaviour
bit for bit across commits, but it runs outside tier-1.  This test is
its small in-tree twin: one fixed-seed closed loop on the raw BFT group
whose simulated outcome is pinned as literals, so a hot-path edit that
moves simulated time, message counts, wire bytes or trace counters —
a reordered ``charge()``, a changed RNG draw, a different wire size —
fails here first.  The literals were captured on the commit before the
hot path was optimised; they change only when the *model* changes.

The second half pins the seal-once budget: a message is one Python
object at its sender and at every receiver, so it is encoded and hashed
at most once however many replicas handle it.
"""

from collections import Counter

import repro.bft.messages as messages
from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness.cluster import build_cluster
from repro.harness.costs import PROTOCOL_COSTS, lan_network

SEED = 7
CLIENTS = 4
PUTS_PER_CLIENT = 50

put = InMemoryStateManager.op_put


def run_closed_loop():
    """4 clients x 50 puts, each client's next put issued on acceptance."""
    cluster = build_cluster(
        lambda i: InMemoryStateManager(size=64),
        config=BftConfig(n=4, batch_max=8, checkpoint_interval=16),
        network_config=lan_network(SEED), costs=PROTOCOL_COSTS, seed=SEED)
    remaining = [CLIENTS * PUTS_PER_CLIENT]

    def start(index):
        client = cluster.add_client(f"client{index}",
                                    costs=PROTOCOL_COSTS).client
        issued = [0]

        def issue(_result=None):
            if _result is not None:
                assert _result == b"ok"
                remaining[0] -= 1
            if issued[0] < PUTS_PER_CLIENT:
                issued[0] += 1
                client.invoke(put((index * 7 + issued[0]) % 64,
                                  b"c%d-%d" % (index, issued[0])), issue)

        issue()

    for index in range(CLIENTS):
        start(index)
    assert cluster.run_until(lambda: remaining[0] == 0)
    cluster.run(0.1)        # let the in-flight commits land
    return cluster


def test_simulated_outcome_is_pinned():
    cluster = run_closed_loop()
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
    assert cluster.scheduler.events_run == 2310
    assert cluster.network.messages_sent == 2308
    assert cluster.network.bytes_sent == 203704
    assert cluster.scheduler.now == 0.13465726531353578
    assert roots.pop().hex() == (
        "d45c02aa87bddeb4f5a97fb79c301f102696cf876caa1005a7053305dcc2f235")
    tracer = cluster.tracer
    assert dict(tracer.counters) == {
        "checkpoint_stable": 12, "checkpoint_taken": 12, "committed": 212,
        "executed": 800, "pre_prepare_sent": 53, "prepared": 212,
        "result_accepted": 200}
    assert (len(tracer.events), tracer.dropped_events) == (1501, 0)
    assert tracer.metrics.counters == {
        "client.accept_tentative": 200, "client.requests": 200}
    assert {name: (hist.count, hist.sum)
            for name, hist in tracer.metrics.histograms.items()} == {
        "batch.size": (53, 200.0),
        "phase.pre_prepare_to_prepared": (212, 0.05049945102649402),
        "phase.prepared_to_committed": (212, 0.02183138026720956),
        "phase.prepared_to_executed": (212, 0.0),
        "phase.request_to_pre_prepare": (200, 0.006717346819527339),
        "phase.request_to_reply": (200, 0.13547131855357783)}


def test_each_message_is_encoded_and_hashed_at_most_once(monkeypatch):
    encoded = Counter()
    hashed = Counter()
    real_canonical, real_digest = messages.canonical, messages.sha_digest

    def counting_canonical(value):
        body = real_canonical(value)
        encoded[body] += 1
        return body

    def counting_digest(data):
        hashed[data] += 1
        return real_digest(data)

    monkeypatch.setattr(messages, "canonical", counting_canonical)
    monkeypatch.setattr(messages, "sha_digest", counting_digest)
    cluster = run_closed_loop()

    # Distinct messages have distinct bodies in a fault-free run (every
    # body names its sender and its request or slot), so a body seen
    # twice is a message encoded twice.
    assert encoded and max(encoded.values()) == 1
    assert hashed and max(hashed.values()) == 1
    # Everything hashed through the messages module is a message body.
    assert set(hashed) <= set(encoded)
    # 200 requests, 800 replies, 53 pre-prepares, 159 prepares, 212
    # commits and 12 checkpoints make 2308 deliveries: one encode per
    # message, not per delivery, and one hash per MAC-authenticated
    # message (checkpoints are signed over the body instead).
    assert len(encoded) == 1436
    assert len(hashed) == 1436 - 12
    assert cluster.network.messages_sent == 2308
