from repro.base.state import AbstractStateManager
from repro.bft.messages import Ping
from repro.sim.node import Node


class Batcher:
    def __init__(self):
        self.pending = set()

    def drain(self):
        out = []
        # Bad input for the deep taint pass; RPL-SETITER fires here too.
        for item in self.pending:
            out.append(item)
        return out


def to_wire(batcher):
    items = batcher.drain()
    return Ping(tuple(items))


class Applier(Node):
    def __init__(self):
        self.state = AbstractStateManager()
        self.dirty = set()

    def handle_ping(self, src, msg):
        index = self.dirty.pop()
        self.charge(1)
        self.state.modify(index)
