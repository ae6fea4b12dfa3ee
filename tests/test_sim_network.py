"""Unit tests for the simulated network and node base class."""

from dataclasses import dataclass

import pytest

from repro.sim import LinkConfig, Network, NetworkConfig, Node, Scheduler


@dataclass
class Ping:
    kind: str = "ping"
    payload: str = ""

    def wire_size(self):
        return 64 + len(self.payload)


class Recorder(Node):
    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []

    def handle_ping(self, src, msg):
        self.received.append((src, msg.payload, self.now))


def make_net(seed=0, **link_kwargs):
    sched = Scheduler()
    link = LinkConfig(**link_kwargs) if link_kwargs else LinkConfig()
    net = Network(sched, NetworkConfig(seed=seed, default_link=link))
    return sched, net


def test_point_to_point_delivery():
    sched, net = make_net(jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    a.send("b", Ping(payload="hi"))
    sched.run()
    assert len(b.received) == 1
    src, payload, t = b.received[0]
    assert src == "a" and payload == "hi"
    assert t > 0  # latency + bandwidth charged


def test_bandwidth_charge_scales_with_size():
    sched, net = make_net(jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    a.send("b", Ping(payload="x"))
    a.send("b", Ping(payload="y" * 100_000))
    sched.run()
    t_small = b.received[0][2]
    t_big = b.received[1][2]
    assert t_big - t_small > 0.001  # 100 KB at 100 Mb/s ~ 8 ms


def test_multicast_reaches_all_destinations():
    sched, net = make_net()
    a = Recorder("a", net)
    others = [Recorder(f"r{i}", net) for i in range(3)]
    a.multicast([r.node_id for r in others], Ping(payload="m"))
    sched.run()
    assert all(len(r.received) == 1 for r in others)


def test_partition_drops_messages_and_heals():
    sched, net = make_net()
    a = Recorder("a", net)
    b = Recorder("b", net)
    net.partition("a", "b")
    a.send("b", Ping())
    sched.run()
    assert b.received == []
    assert net.messages_dropped == 1
    net.heal("a", "b")
    a.send("b", Ping())
    sched.run()
    assert len(b.received) == 1


def test_drop_rate_loses_some_messages():
    sched, net = make_net(seed=42, drop_rate=0.5, jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    for _ in range(200):
        a.send("b", Ping())
    sched.run()
    assert 30 < len(b.received) < 170


def test_filter_can_drop_selectively():
    sched, net = make_net()
    a = Recorder("a", net)
    b = Recorder("b", net)
    net.add_filter(lambda s, d, m: m.payload != "evil")
    a.send("b", Ping(payload="evil"))
    a.send("b", Ping(payload="good"))
    sched.run()
    assert [p for _, p, _ in b.received] == ["good"]


def test_crashed_node_neither_sends_nor_receives():
    sched, net = make_net()
    a = Recorder("a", net)
    b = Recorder("b", net)
    b.crash()
    a.send("b", Ping())
    sched.run()
    assert b.received == []
    a.crash()
    a.send("b", Ping())
    sched.run()
    assert net.messages_sent == 1  # second send suppressed at the node


def test_restarted_node_receives_again():
    sched, net = make_net()
    a = Recorder("a", net)
    b = Recorder("b", net)
    b.crash()
    a.send("b", Ping())
    sched.run()
    b.restart_node()
    a.send("b", Ping())
    sched.run()
    assert len(b.received) == 1


def test_per_link_override():
    sched, net = make_net(jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    c = Recorder("c", net)
    net.set_link("a", "c", LinkConfig(latency=1.0, jitter=0.0))
    a.send("b", Ping())
    a.send("c", Ping())
    sched.run()
    assert b.received[0][2] < 0.01
    assert c.received[0][2] >= 1.0


def test_multicast_charges_per_destination_bandwidth():
    # Regression: multicast used to compute the serialization delay from
    # the *first* destination's bandwidth and apply it to everyone.
    sched, net = make_net(jitter=0.0, latency=0.0)
    a = Recorder("a", net)
    slow = Recorder("slow", net)
    fast = Recorder("fast", net)
    default = Recorder("default", net)
    nbytes = 64 + 100_000
    net.set_link("a", "slow", LinkConfig(latency=0.0, jitter=0.0,
                                         bandwidth=1_000_000.0))
    net.set_link("a", "fast", LinkConfig(latency=0.0, jitter=0.0,
                                         bandwidth=100_000_000.0))
    # "slow" is deliberately first: its bandwidth must not leak onto the
    # other destinations' delays.
    a.multicast(["slow", "fast", "default"], Ping(payload="y" * 100_000))
    sched.run()
    t_slow = slow.received[0][2]
    t_fast = fast.received[0][2]
    t_default = default.received[0][2]
    assert t_slow == pytest.approx(nbytes / 1_000_000.0)
    assert t_fast == pytest.approx(nbytes / 100_000_000.0)
    # Unconfigured links fall back to the sender's default link config.
    assert t_default == pytest.approx(nbytes / LinkConfig().bandwidth)
    # The sender still serializes once: one payload against bytes_sent.
    assert net.bytes_sent == nbytes


def test_duplicate_gets_independent_delay():
    # Regression: duplicates used to arrive at exactly delay * 2.
    sched, net = make_net(seed=3, jitter=0.01, duplicate_rate=1.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    a.send("b", Ping())
    sched.run()
    assert len(b.received) == 2
    assert net.messages_duplicated == 1
    t1, t2 = sorted(t for _, _, t in b.received)
    assert t2 != pytest.approx(2 * t1)


def test_duplicate_without_jitter_is_not_double_delay():
    # With zero jitter both copies take the same deterministic trip —
    # the duplicate must not be charged the path twice.
    sched, net = make_net(jitter=0.0, duplicate_rate=1.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    a.send("b", Ping())
    sched.run()
    assert len(b.received) == 2
    t1, t2 = (t for _, _, t in b.received)
    assert t1 == pytest.approx(t2)


def test_determinism_same_seed_same_delivery_times():
    def run(seed):
        sched, net = make_net(seed=seed, jitter=0.001)
        a = Recorder("a", net)
        b = Recorder("b", net)
        for _ in range(20):
            a.send("b", Ping())
        sched.run()
        return [t for _, _, t in b.received]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_timer_restart_and_stop():
    sched, net = make_net()
    fired = []
    node = Recorder("a", net)
    timer = node.make_timer(1.0, lambda: fired.append(sched.now))
    timer.start()
    assert timer.running
    sched.run()
    assert fired == [1.0]
    assert not timer.running
    timer.start()
    timer.stop()
    sched.run()
    assert fired == [1.0]
    timer.restart(2.0)
    sched.run()
    assert fired == [1.0, 3.0]


def test_timer_start_while_running_records_new_period():
    sched, net = make_net()
    fired = []
    node = Recorder("a", net)
    timer = node.make_timer(1.0, lambda: fired.append(sched.now))
    timer.start()
    # A running timer keeps its current deadline, but the new period must
    # not be silently discarded: it takes effect on the next arm.
    timer.start(period=5.0)
    assert timer.period == 5.0
    sched.run()
    assert fired == [1.0]
    timer.start()
    sched.run()
    assert fired == [1.0, 6.0]


def test_multicast_counts_bytes_only_when_a_copy_enters_fabric():
    sched, net = make_net(jitter=0.0)
    a = Recorder("a", net)
    b = Recorder("b", net)
    c = Recorder("c", net)
    msg = Ping(payload="x" * 100)
    net.partition("a", "b")
    net.partition("a", "c")
    a.multicast(["b", "c"], msg)
    sched.run()
    # Every copy was partitioned: nothing went onto the wire.
    assert net.bytes_sent == 0
    assert net.messages_dropped == 2
    assert b.received == [] and c.received == []
    # Filters that drop every copy must not count bytes either.
    drop_all = lambda src, dst, m: False
    net.heal_all()
    net.add_filter(drop_all)
    a.multicast(["b", "c"], msg)
    sched.run()
    assert net.bytes_sent == 0
    net.remove_filter(drop_all)
    # One reachable destination: the single serialization counts once.
    net.partition("a", "c")
    a.multicast(["b", "c"], msg)
    sched.run()
    assert net.bytes_sent == msg.wire_size()
    assert [p for _, p, _ in b.received] == [msg.payload]
