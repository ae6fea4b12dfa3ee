"""Ablations — the design choices DESIGN.md calls out.

Micro-benchmarks isolating each mechanism's contribution, in the spirit
of the BFT evaluation the paper leans on:

- request batching under concurrent load;
- the read-only optimization (one round trip vs ordering reads);
- copy-on-write incremental checkpoints vs checkpointing everything;
- hierarchical state transfer vs a flat full-state fetch.
"""

import pytest

from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness import costs as C
from repro.workloads.microbench import (
    build_kv_cluster,
    concurrent_ops,
    sequential_ops,
)


def _config(**kw):
    defaults = dict(n=4, checkpoint_interval=32)
    defaults.update(kw)
    return BftConfig(**defaults)


def _cluster(**kw):
    return build_kv_cluster(config=_config(**kw),
                            network_config=C.lan_network(),
                            costs=C.PROTOCOL_COSTS)


def test_ablation_batching(benchmark):
    def run():
        batched = concurrent_ops(_cluster(batch_max=16), clients=8,
                                 per_client=12, label="batched")
        unbatched = concurrent_ops(_cluster(batch_max=1), clients=8,
                                   per_client=12, label="unbatched")
        return batched, unbatched
    batched, unbatched = benchmark.pedantic(run, rounds=1, iterations=1)
    gain = unbatched.elapsed / batched.elapsed
    msg_gain = unbatched.messages / batched.messages
    print(f"\nbatching: {batched.throughput:.0f} vs {unbatched.throughput:.0f}"
          f" ops/s ({gain:.2f}x elapsed, {msg_gain:.2f}x messages)")
    assert gain > 1.2, "batching should speed up concurrent load"
    assert msg_gain > 1.5, "batching should cut protocol messages"


def test_ablation_read_only_optimization(benchmark):
    def run():
        fast = sequential_ops(_cluster(read_only_optimization=True), 50,
                              "ro-on", read_only=True)
        slow = sequential_ops(_cluster(read_only_optimization=False), 50,
                              "ro-off", read_only=True)
        return fast, slow
    fast, slow = benchmark.pedantic(run, rounds=1, iterations=1)
    gain = slow.latency / fast.latency
    print(f"\nread-only opt: {fast.latency * 1e6:.0f}us vs "
          f"{slow.latency * 1e6:.0f}us per read ({gain:.2f}x)")
    assert gain > 1.4, "the read-only path must skip ordering"
    assert fast.messages < slow.messages


def test_ablation_incremental_checkpoints(benchmark):
    """COW checkpoints only touch modified objects: with a large array and
    a small working set, checkpoint work stays proportional to the writes,
    not the state size."""
    from repro.base.state import AbstractStateManager
    from tests.test_base_state import ToyWrapper, op_set

    def run():
        wrapper = ToyWrapper(size=4096)
        manager = AbstractStateManager(wrapper, branching=64)
        touched = []
        calls = {"count": 0}
        original = wrapper.get_obj

        def counting(index):
            calls["count"] += 1
            return original(index)
        manager.take_checkpoint(0)
        wrapper.get_obj = counting
        for seq in range(1, 33):
            manager.execute(op_set(seq % 5, b"x%d" % seq), "c", seq, seq,
                            b"")
        manager.take_checkpoint(64)
        return calls["count"]
    get_obj_calls = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nCOW checkpoint touched {get_obj_calls} objects of 4096")
    # 5 distinct slots written -> ~10 get_obj calls (pre-image + digest),
    # not thousands.
    assert get_obj_calls <= 3 * 5


def test_ablation_hierarchical_transfer(benchmark):
    """A lagger missing writes to 3 of 512 slots fetches ~3 objects, not
    the whole array — the point of the partition tree."""
    from tests.conftest import make_kv_cluster
    put = InMemoryStateManager.op_put

    def run():
        cluster = make_kv_cluster(checkpoint_interval=4, size=512)
        client = cluster.add_client("client0")
        for i in range(4):
            client.call(put(i % 3, b"seed%d" % i))
        cluster.run(1.0)
        lagger = cluster.replicas[3]
        for other in cluster.config.replica_ids:
            if other != lagger.node_id:
                cluster.network.partition(lagger.node_id, other)
        for i in range(8):
            client.call(put(i % 3, b"x%d" % i))
        cluster.network.heal_all()
        for i in range(4):
            client.call(put(i % 3, b"y%d" % i))
        cluster.run(5.0)
        return lagger
    lagger = benchmark.pedantic(run, rounds=1, iterations=1)
    fetched = lagger.transfer.objects_fetched_total
    print(f"\nhierarchical transfer fetched {fetched} of 512 objects")
    assert 0 < fetched <= 6
    assert lagger.state.values == \
        lagger.network._nodes["replica0"].state.values
