"""Shared helper for the benchmark harness.

The expensive simulation runs are cached in ``benchmarks/paper.py``, so
that, e.g., the Andrew100 BASEFS run feeds Tables I, III and IV without
re-simulating.
"""


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
