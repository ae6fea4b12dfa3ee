"""Shared fixtures for the test suite."""

import pytest

from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness.cluster import build_cluster
from repro.sim.tracing import EventRing, Tracer


def ring_tracer(max_events):
    """A tracer whose ring holds ``max_events`` (0 keeps none)."""
    tracer = Tracer()
    tracer.events = EventRing(max_events)
    return tracer


def make_kv_cluster(n=4, checkpoint_interval=4, size=64, seed=0, **cfg_kwargs):
    """A 4-replica key-value cluster with small checkpoints for testing."""
    config = BftConfig(n=n, checkpoint_interval=checkpoint_interval,
                       **cfg_kwargs)
    return build_cluster(lambda i: InMemoryStateManager(size=size),
                         config=config, seed=seed)


@pytest.fixture
def kv_cluster():
    return make_kv_cluster()


@pytest.fixture
def kv_client(kv_cluster):
    return kv_cluster.add_client("client0")
