import time

from repro.encoding.canonical import canonical


class Batcher:
    def __init__(self):
        self.pending = set()

    def drain(self):
        return sorted(self.pending)


def build(batcher):
    items = batcher.drain()
    # DET-CLOCK fires here; len() below sanitizes it for the deep pass.
    elapsed = time.time()
    return canonical((items, len(str(elapsed))))
