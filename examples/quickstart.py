#!/usr/bin/env python
"""Quickstart: replicate a tiny service with BASE in ~80 lines.

Builds a Byzantine-fault-tolerant counter service where the four
replicas run *two different implementations* (one stores the counter as
an int, the other as a decimal string — different concrete states, one
abstract spec), then demonstrates that the group masks a Byzantine
replica that lies in its replies.

Run:  python examples/quickstart.py
"""

from repro.base.library import build_base_cluster
from repro.base.upcalls import Upcalls
from repro.bft.faults import WrongReplyBehavior
from repro.encoding.canonical import canonical, decanonical


class IntCounter(Upcalls):
    """Implementation A: keeps the counter as a Python int."""

    def __init__(self):
        super().__init__()
        self.value = 0

    @property
    def num_objects(self):
        return 1  # the whole abstract state is one object: the count

    def execute(self, op, client_id, nondet, read_only=False):
        kind, amount = decanonical(op)
        if kind == "add":
            self.library.modify(0)     # copy-on-write checkpointing hook
            self.value += amount
        return canonical(self.value)

    def get_obj(self, index):
        # Abstraction function: int -> canonical bytes.
        return canonical(self.value)

    def put_objs(self, objects):
        # Inverse: install a transferred abstract value.
        self.value = decanonical(objects[0])


class StringCounter(IntCounter):
    """Implementation B: same abstract spec, the concrete state is a
    decimal string (imagine an off-the-shelf component you can't edit)."""

    def __init__(self):
        super().__init__()
        self.text = "0"

    @property
    def value(self):
        return int(self.text)

    @value.setter
    def value(self, v):
        self.text = str(v)


def main():
    # Opportunistic N-version programming: two implementations, four replicas.
    cluster = build_base_cluster(
        [IntCounter, StringCounter, IntCounter, StringCounter])
    client = cluster.add_client("demo-client")

    print("incrementing the replicated counter...")
    for i in range(5):
        result = decanonical(client.call(canonical(("add", 10))))
        print(f"  add 10 -> {result}")

    # Make one replica Byzantine: it corrupts every reply it sends.
    print("\nmaking replica2 Byzantine (corrupts its replies)...")
    cluster.replicas[2].behavior = WrongReplyBehavior()
    result = decanonical(client.call(canonical(("add", 1))))
    print(f"  add 1 -> {result}   (correct despite the liar: f+1 vote)")

    # Reads can use the read-only optimization: a single round trip.
    result = decanonical(client.call(canonical(("get", 0)), read_only=True))
    print(f"  read-only get -> {result}")

    values = [r.state.upcalls.value for r in cluster.replicas]
    kinds = [type(r.state.upcalls).__name__ for r in cluster.replicas]
    print("\nper-replica concrete implementations and values:")
    for kind, value in zip(kinds, values):
        print(f"  {kind:15s} -> {value}")
    assert len(set(values)) == 1, "replicas diverged!"
    print("\nall replicas agree; quickstart OK")


if __name__ == "__main__":
    main()
