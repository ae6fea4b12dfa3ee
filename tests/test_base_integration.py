"""End-to-end BASE cluster tests: heterogeneous wrappers, nondeterminism,
recovery through the full upcall interface."""

import pytest

from repro.base.nondet import ClockValue, TimestampAgreement
from repro.base.library import build_base_cluster
from repro.base.upcalls import Upcalls
from repro.bft.config import BftConfig
from repro.encoding.canonical import canonical, decanonical
from repro.sim.scheduler import Scheduler


class RegisterWrapperA(Upcalls):
    """Common abstract spec: array of registers with a last-write time.

    Implementation A stores values in a dict keyed by index (sparse).
    """

    def __init__(self, size=16, clock=lambda: 0.0):
        super().__init__()
        self._size = size
        self._store = {}       # concrete representation A
        self._times = {}
        self.timestamps = TimestampAgreement(clock)
        self.restart_count = 0

    @property
    def num_objects(self):
        return self._size

    def execute(self, op, client_id, nondet, read_only=False):
        kind, *rest = decanonical(op)
        if kind == "write":
            index, value = rest
            when = self.timestamps.accept(nondet)
            self.library.modify(index)
            self._write_concrete(index, value, when)
            return b"ok"
        if kind == "read":
            value, when = self._read_concrete(rest[0])
            return canonical((value, int(when * 1_000_000)))
        raise ValueError(kind)

    def propose_value(self, requests, seq):
        return self.timestamps.propose()

    def check_value(self, requests, seq, nondet):
        return self.timestamps.check(nondet)

    def get_obj(self, index):
        value, when = self._read_concrete(index)
        return canonical((value, int(when * 1_000_000)))

    def put_objs(self, objects):
        for index, blob in objects.items():
            value, usec = decanonical(blob)
            self._write_concrete(index, value, usec / 1_000_000)

    def shutdown(self):
        return 0.01

    def restart(self):
        self.restart_count += 1
        return 0.01

    # concrete-representation hooks (overridden by implementation B)
    def _write_concrete(self, index, value, when):
        self._store[index] = value
        self._times[index] = when

    def _read_concrete(self, index):
        return self._store.get(index, b""), self._times.get(index, 0.0)


class RegisterWrapperB(RegisterWrapperA):
    """Implementation B: dense list storage plus an access-count 'leak' —
    concrete state deliberately different from A's."""

    def __init__(self, size=16, clock=lambda: 0.0):
        super().__init__(size, clock)
        self._dense = [(b"", 0.0)] * size
        self.leak = []

    def _write_concrete(self, index, value, when):
        self.leak.append(index)  # simulated resource leak
        self._dense[index] = (value, when)

    def _read_concrete(self, index):
        return self._dense[index]


def op_write(i, v):
    return canonical(("write", i, v))


def op_read(i):
    return canonical(("read", i))


def build_heterogeneous(checkpoint_interval=4, **cfg):
    config = BftConfig(n=4, checkpoint_interval=checkpoint_interval, **cfg)
    scheduler = Scheduler()
    factories = []
    for i in range(4):
        wrapper_cls = RegisterWrapperA if i % 2 == 0 else RegisterWrapperB

        def make(cls=wrapper_cls):
            return cls(clock=lambda: scheduler.now)
        factories.append(make)
    return build_base_cluster(factories, config=config, scheduler=scheduler)


def test_heterogeneous_replicas_agree_on_abstract_state():
    """Two distinct concrete representations, one abstract spec: roots of
    every checkpoint match across implementations."""
    cluster = build_heterogeneous()
    client = cluster.add_client("client0")
    for i in range(8):
        assert client.call(op_write(i % 5, b"h%d" % i)) == b"ok"
    cluster.run(1.0)
    stables = {r.last_stable for r in cluster.replicas}
    assert max(stables) >= 8
    # All replicas marked the same checkpoint stable => roots matched.
    roots = {r.state.checkpoint_root(8) for r in cluster.replicas
             if r.state.checkpoint_root(8) is not None}
    assert len(roots) == 1


def test_nondeterministic_timestamps_agreed_not_local():
    """Replicas never read their own clock for the result: reads return
    the primary-proposed, checked timestamp identically everywhere."""
    cluster = build_heterogeneous()
    client = cluster.add_client("client0")
    client.call(op_write(0, b"v"))
    result = client.call(op_read(0))
    value, usec = decanonical(result)
    assert value == b"v"
    assert usec > 0
    # The f+1 matching replies required implies replicas agreed on usec.


def test_timestamps_monotonic_across_writes():
    cluster = build_heterogeneous()
    client = cluster.add_client("client0")
    times = []
    for i in range(5):
        client.call(op_write(1, b"w%d" % i))
        _, usec = decanonical(client.call(op_read(1)))
        times.append(usec)
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_state_transfer_across_different_implementations():
    """A lagging replica running implementation B fetches state produced
    by implementation A replicas — the abstraction function bridges them."""
    cluster = build_heterogeneous()
    client = cluster.add_client("client0")
    lagger = cluster.replicas[1]  # runs RegisterWrapperB
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    for i in range(8):
        client.call(op_write(i, b"x%d" % i))
    cluster.network.heal_all()
    for i in range(4):
        client.call(op_write(i, b"y%d" % i))
    cluster.run(5.0)
    assert lagger.last_executed >= 8
    # B's concrete state now reflects A-produced abstract objects.
    assert lagger.state.upcalls._dense[5][0] == b"x5"


def test_proactive_recovery_calls_shutdown_and_restart():
    cluster = build_heterogeneous(reboot_delay=0.5)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(op_write(i % 3, b"r%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    cluster.run(15.0)
    assert not victim.recovery.recovering
    assert victim.state.upcalls.restart_count == 1
    rec = victim.recovery.records[-1]
    assert rec.shutdown == pytest.approx(0.01)
    assert rec.restart == pytest.approx(0.01)


def test_recovery_fixes_corrupt_concrete_state_in_wrapper():
    """Abstraction hides the corruption source: recovery repairs B's dense
    array using abstract objects computed by A replicas."""
    cluster = build_heterogeneous(reboot_delay=0.2)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(op_write(i, b"good%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[3]  # implementation B
    victim.state.upcalls._dense[2] = (b"ROTTEN", 0.0)
    victim.recovery.start_recovery()
    cluster.run(15.0)
    assert victim.state.upcalls._dense[2][0] == b"good2"


def test_mismatched_factory_count_rejected():
    with pytest.raises(ValueError):
        build_base_cluster([lambda: RegisterWrapperA()] * 3,
                           config=BftConfig(n=4))
