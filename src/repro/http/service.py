"""Registration and client for the replicated web/DAV service.

Declared once as :data:`HTTP_SERVICE`; :mod:`repro.service.deploy`
builds both deployments from it.
"""

from __future__ import annotations

from typing import Tuple

from repro.encoding.canonical import canonical, decanonical
from repro.http.engine import HttpError, HttpStatus, NginxLikeServer, \
    _BaseServer
from repro.http.wrapper import HttpConformanceWrapper
from repro.service.deploy import (
    Channel,
    DirectService,
    ServiceDefinition,
    ShardKeySpec,
    WrapperContext,
    wrapper_as_baseline,
)
from repro.service.registry import register

#: Methods eligible for BFT's read-only path, off the declarative table.
READ_ONLY_METHODS = frozenset(
    m.upper() for m in HttpConformanceWrapper.read_only_ops())


class HttpClient:
    """Minimal method-per-verb client over either deployment."""

    def __init__(self, channel: Channel):
        self._channel = channel

    def _issue(self, *parts, read_only=False) -> tuple:
        return decanonical(self._channel.call(canonical(parts),
                                              read_only=read_only))

    def get(self, path: str, if_none_match: str = "") -> Tuple[str, bytes]:
        result = self._issue("GET", path, if_none_match, read_only=True)
        if result[0] == int(HttpStatus.NOT_MODIFIED):
            return result[1], None
        self._raise_unless(result, HttpStatus.OK)
        return result[1], result[2]

    def put(self, path: str, body: bytes, if_match: str = "") -> str:
        result = self._issue("PUT", path, body, if_match)
        if result[0] not in (int(HttpStatus.CREATED),
                             int(HttpStatus.NO_CONTENT)):
            raise HttpError(HttpStatus(result[0]))
        return result[1]

    def delete(self, path: str) -> None:
        self._raise_unless(self._issue("DELETE", path),
                           HttpStatus.NO_CONTENT)

    def mkcol(self, path: str) -> None:
        self._raise_unless(self._issue("MKCOL", path), HttpStatus.CREATED)

    def propfind(self, path: str):
        result = self._issue("PROPFIND", path, read_only=True)
        self._raise_unless(result, HttpStatus.OK)
        return list(result[1])

    @staticmethod
    def _raise_unless(result: tuple, expected: HttpStatus) -> None:
        if result[0] != int(expected):
            raise HttpError(HttpStatus(result[0]))


# -- service registration ----------------------------------------------------------


def _make_server(server_class: type, index: int) -> _BaseServer:
    kwargs = {"boot_salt": index + 1} \
        if server_class.__name__ == "ApacheLikeServer" else {}
    return server_class(**kwargs)


def _make_wrapper(ctx: WrapperContext) -> HttpConformanceWrapper:
    return HttpConformanceWrapper(
        _make_server(ctx.backend_class or NginxLikeServer, ctx.index),
        array_size=ctx.options["array_size"])


def _make_direct(ctx: WrapperContext) -> DirectService:
    server = (ctx.backend_class or NginxLikeServer)()
    return wrapper_as_baseline(HttpConformanceWrapper(server), server)


def _shard_key(decoded: tuple):
    # Partition the URL space by top path segment (the per-site prefix
    # under a mass-hosting layout); the root collection itself lives on
    # the "" key's shard.
    if len(decoded) >= 2 and isinstance(decoded[1], str):
        stripped = decoded[1].strip("/")
        return stripped.split("/", 1)[0]
    return None


HTTP_SERVICE = register(ServiceDefinition(
    name="http",
    make_wrapper=_make_wrapper,
    make_client=HttpClient,
    make_direct=_make_direct,
    wrapper_options={"array_size": 256},
    default_backends=(NginxLikeServer,) * 4,
    branching=16,
    shard_key=ShardKeySpec(extract=_shard_key, axis="top path segment"),
))
