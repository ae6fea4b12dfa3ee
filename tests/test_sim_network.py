"""Unit tests for the simulated network and node base class."""

from dataclasses import dataclass

import pytest

from repro.sim.network import LinkConfig, Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.scheduler import Scheduler


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


@pytest.mark.parametrize("drop_rate,partitioned", [
    (0.0, False), (0.5, False), (0.0, True)])
def test_send_and_multicast_follow_one_transmit_rule(drop_rate, partitioned):
    # A unicast and a one-destination multicast from the same seed make
    # the same RNG draws, deliver at the same times, and count the same
    # messages: each copy takes the one trip ``_transmit`` defines.
    def run(transmit):
        sched, net = make_net(seed=11, jitter=0.001, drop_rate=drop_rate)
        Recorder("a", net)
        b = Recorder("b", net)
        if partitioned:
            net.partition("a", "b")
        for i in range(40):
            transmit(net, Ping(payload="p" * i))
        sched.run()
        return b.received, net

    sent, by_send = run(lambda net, m: net.send("a", "b", m))
    multicast, by_multicast = run(lambda net, m: net.multicast("a", ["b"], m))
    assert sent == multicast
    assert by_send.rng.random() == by_multicast.rng.random()
    assert by_send.messages_sent == by_multicast.messages_sent == 40
    assert by_send.messages_dropped == by_multicast.messages_dropped \
        == 40 - len(sent)
    assert (len(sent) < 40) == (drop_rate > 0 or partitioned)
    # The one difference left: ``send`` counts the bytes of a copy it
    # then drops or partitions, ``multicast`` only those of copies that
    # left.
    assert by_send.bytes_sent == sum(64 + i for i in range(40))
    assert by_multicast.bytes_sent == sum(64 + len(p) for _, p, _ in sent)


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


def test_timer_start_while_running_keeps_its_deadline():
    sched, net = make_net()
    fired = []
    node = Recorder("a", net)
    timer = node.make_timer(1.0, lambda: fired.append(sched.now))
    timer.start()
    sched.run_until(0.5)
    # Arming a running timer again keeps the deadline it had; only
    # ``restart`` re-arms from now.
    timer.start()
    sched.run()
    assert fired == [1.0]
    timer.start()
    sched.run_until(1.5)
    timer.restart()
    sched.run()
    assert fired == [1.0, 2.5]


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
