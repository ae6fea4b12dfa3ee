import time

from repro.encoding.canonical import canonical


def now_ts():
    # Bad input for the deep taint pass; DET-CLOCK fires here too.
    return time.time()


def build_payload(seq):
    ts = now_ts()
    return canonical((seq, ts))
