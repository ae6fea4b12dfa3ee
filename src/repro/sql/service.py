"""Registration and client for the relational service.

Declared once as :data:`SQL_SERVICE`; :mod:`repro.service.deploy` builds
both deployments from it (mix engine classes for N-version operation).
"""

from __future__ import annotations

from typing import Sequence

from repro.encoding.canonical import canonical, decanonical
from repro.service.deploy import (
    Channel,
    DirectService,
    ServiceDefinition,
    ShardKeySpec,
    WrapperContext,
    wrapper_as_baseline,
)
from repro.service.registry import register
from repro.sql.engine import BTreeStoreEngine, SqlEngineError
from repro.sql.wrapper import SqlConformanceWrapper

#: Ops eligible for BFT's read-only path — read straight off the
#: declarative op table instead of a hand-maintained copy.
READ_ONLY_OPS = SqlConformanceWrapper.read_only_ops()


class SqlClient:
    """ODBC-ish client API over either deployment."""

    def __init__(self, channel: Channel):
        self._channel = channel

    def _issue(self, *parts, read_only: bool = False):
        raw = self._channel.call(canonical(parts), read_only=read_only)
        result = decanonical(raw)
        if result[0] != "OK":
            raise SqlEngineError(result[1], result[2] if len(result) > 2
                                 else "")
        return result[1:]

    def create_table(self, name: str, columns: Sequence[str],
                     key: str) -> None:
        self._issue("create_table", name, tuple(columns), key)

    def drop_table(self, name: str) -> None:
        self._issue("drop_table", name)

    def tables(self):
        return self._issue("tables", read_only=True)[0]

    def insert(self, table: str, values: Sequence) -> None:
        self._issue("insert", table, tuple(values))

    def select(self, table: str, key):
        return self._issue("select", table, key, read_only=True)[0]

    def update(self, table: str, key, values: Sequence) -> None:
        self._issue("update", table, key, tuple(values))

    def delete(self, table: str, key) -> None:
        self._issue("delete", table, key)

    def scan(self, table: str):
        return self._issue("scan", table, read_only=True)[0]

    def row_count(self, table: str) -> int:
        return self._issue("row_count", table, read_only=True)[0]


# -- service registration ----------------------------------------------------------


def _make_wrapper(ctx: WrapperContext) -> SqlConformanceWrapper:
    engine_class = ctx.backend_class or BTreeStoreEngine
    return SqlConformanceWrapper(engine_class(),
                                 array_size=ctx.options["array_size"])


def _make_direct(ctx: WrapperContext) -> DirectService:
    engine = (ctx.backend_class or BTreeStoreEngine)()
    return wrapper_as_baseline(SqlConformanceWrapper(engine), engine)


def _shard_key(decoded: tuple):
    # Every op names its table as the first argument; the catalog op
    # ("tables",) has no key and lives on the home shard.
    if len(decoded) >= 2 and isinstance(decoded[1], str):
        return decoded[1]
    return None


SQL_SERVICE = register(ServiceDefinition(
    name="sql",
    make_wrapper=_make_wrapper,
    make_client=SqlClient,
    make_direct=_make_direct,
    wrapper_options={"array_size": 512},
    default_backends=(BTreeStoreEngine,) * 4,
    branching=16,
    shard_key=ShardKeySpec(extract=_shard_key, axis="table name"),
))
