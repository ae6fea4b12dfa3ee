from repro.sim.node import Node


class Replica(Node):
    def handle_ping(self, src, msg):    # its MAC was charged by the gate
        self.note(msg)

    def handle_pong(self, src, msg):    # member-only: nothing charged
        self.note(msg)

    def note(self, msg):
        return msg


class PeekManager:
    def on_peek(self, src, msg):        # open, and handled for free
        return msg
