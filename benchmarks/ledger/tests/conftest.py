"""Shared fixtures: each workload measured once, traced, on smoke sizes.

Run by path from the repository root (tier-1's ``testpaths`` does not
include this directory)::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json

import pytest

from benchmarks.ledger import run as runner
from benchmarks.ledger.workloads import WORKLOADS


@pytest.fixture(scope="session")
def spec():
    return runner.declared()


@pytest.fixture(scope="session")
def traced(tmp_path_factory):
    """name -> (record, trace file contents) of one traced smoke run."""
    out = {}
    for name in WORKLOADS:
        path = tmp_path_factory.mktemp("ledger") / f"{name}.trace.json"
        record = runner.run_workload(name, seed=0, seconds=0.0, trace=True,
                                     smoke=True, trace_out=path)
        with open(path, encoding="utf-8") as fh:
            out[name] = (record, json.load(fh))
    return out
