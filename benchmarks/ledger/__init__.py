"""The perf ledger: the repository's benchmark (see README.md here).

``run.py`` measures one workload in one process and is the command
``BENCHMARK.json`` names; ``python -m benchmarks.ledger`` runs all four,
compares two runs and checks an A/A pair.  Nothing outside this
directory imports from it, and it imports only ``repro.*``.
"""
