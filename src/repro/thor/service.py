"""Registration and transport for BASE-Thor and the baseline.

Declared once as :data:`THOR_SERVICE`; :mod:`repro.service.deploy`
builds both deployments from it (the replicated one is four replicas of
the *same* nondeterministic Thor server).
"""

from __future__ import annotations

from typing import Tuple

from repro.encoding.canonical import canonical, decanonical
from repro.service.deploy import (
    BROADCAST,
    REQUIRED,
    Channel,
    DirectService,
    DirectServiceServer,
    ServiceDefinition,
    ShardKeySpec,
    WrapperContext,
)
from repro.service.registry import register
from repro.thor.server import ThorServer, ThorServerConfig
from repro.thor.wrapper import ThorConformanceWrapper


class ThorCallError(Exception):
    """The server-side wrapper reported a (deterministic) failure."""


class BaseThorTransport:
    """Client side of either deployment: operations ride a service
    channel (the paper replaced Thor's communication library with one
    that calls the BASE library, avoiding interposed proxies)."""

    def __init__(self, channel: Channel):
        self.channel = channel

    def call(self, op: tuple) -> tuple:
        raw = self.channel.call(canonical(op))
        result = decanonical(raw)
        if result[0] != 0:
            raise ThorCallError(result[1] if len(result) > 1 else "error")
        return result[1:]

    @property
    def now(self) -> float:
        return self.channel.now


# -- service registration ----------------------------------------------------------


def _replica_config(base: ThorServerConfig, index: int) -> ThorServerConfig:
    """Each replica gets a distinct seed, so caches/MOBs/flushes diverge
    concretely while the abstract state stays identical."""
    return ThorServerConfig(
        cache_pages=base.cache_pages,
        mob_bytes=base.mob_bytes,
        vq_capacity=base.vq_capacity,
        seed=base.seed + 101 * (index + 1),
        disk_seek_cost=base.disk_seek_cost,
        disk_byte_cost=base.disk_byte_cost)


def _make_wrapper(ctx: WrapperContext) -> ThorConformanceWrapper:
    base_config = ctx.options["server_config"] or ThorServerConfig()
    server = ThorServer(_replica_config(base_config, ctx.index))
    ctx.options["db_loader"](server)
    return ThorConformanceWrapper(
        server, num_pages=ctx.options["num_pages"],
        max_clients=ctx.options["max_clients"],
        clock=ctx.clock, op_cost=ctx.options["op_cost"],
        commit_byte_cost=ctx.options["commit_byte_cost"])


def _wire_replica(replica, wrapper: ThorConformanceWrapper) -> None:
    # Disk costs charge CPU time through the replica.
    wrapper.server.disk.charge = replica.charge
    wrapper.server.charge = replica.charge


def _make_direct(ctx: WrapperContext) -> DirectService:
    """The paper's baseline, which does not even ensure stability of
    committed data — it keeps the MOB in memory; the paper calls its own
    comparison conservative for exactly that reason."""
    server = ThorServer(ctx.options["server_config"] or ThorServerConfig())
    ctx.options["db_loader"](server)
    op_cost = ctx.options["op_cost"]

    def handler(node: DirectServiceServer, src: str,
                op: bytes) -> Tuple[bytes, int]:
        kind, *args = decanonical(op)
        node.charge(op_cost)
        try:
            if kind == "start_session":
                server.start_session(args[0])
                result = (0, 0)
            elif kind == "end_session":
                server.end_session(args[0])
                result = (0,)
            elif kind == "fetch":
                fetched = server.fetch(args[0], args[1],
                                       tuple(args[2]), tuple(args[3]))
                result = (0, fetched.page_blob, fetched.invalidations)
            elif kind == "commit":
                client, ts, reads, writes, discards, acks = args
                outcome = server.commit(client, ts, frozenset(reads),
                                        dict(writes), tuple(discards),
                                        tuple(acks))
                result = (0, outcome.committed, outcome.invalidations)
            else:
                result = (1, f"unknown op {kind}")
        except Exception as exc:
            result = (1, type(exc).__name__)
        blob = canonical(result)
        return blob, 64 + len(blob)

    def wire(node: DirectServiceServer) -> None:
        server.disk.charge = node.charge
        server.charge = node.charge

    return DirectService(backend=server, handler=handler, wire=wire)


def _thor_shard_key(decoded: tuple):
    """Partition the object universe by page number.

    Session management broadcasts (every shard tracks every client's
    invalid set); fetches route by the fetched page; a commit routes by
    the pages its read and write sets touch — one page set, one shard;
    several, and the caller must use the cross-shard commit path.
    """
    from repro.thor.orefs import oref_pagenum
    kind, *args = decoded
    if kind in ("start_session", "end_session"):
        return BROADCAST
    if kind == "fetch" and len(args) >= 2 and isinstance(args[1], int):
        return ("page", args[1])
    if kind == "commit" and len(args) >= 4:
        reads, writes = args[2], args[3]
        pages = {oref_pagenum(oref) for oref in reads}
        pages.update(oref_pagenum(pair[0]) for pair in writes)
        if pages:
            return [("page", page) for page in sorted(pages)]
    return None


THOR_SERVICE = register(ServiceDefinition(
    name="thor",
    make_wrapper=_make_wrapper,
    make_client=BaseThorTransport,
    make_direct=_make_direct,
    wrapper_options={"num_pages": REQUIRED, "db_loader": REQUIRED,
                     "server_config": None, "max_clients": 16,
                     "op_cost": 0.0, "commit_byte_cost": 0.0},
    direct_options={"db_loader": REQUIRED, "server_config": None,
                    "op_cost": 0.0},
    branching=64,
    wire_replica=_wire_replica,
    shard_key=ShardKeySpec(extract=_thor_shard_key, axis="page number"),
))
