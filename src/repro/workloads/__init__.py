"""Benchmark workloads: the modified Andrew benchmark (file service) and
OO7 (object-oriented database), plus protocol micro-benchmarks."""
