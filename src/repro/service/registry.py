"""The services built on the kernel, by name.

The cross-service conformance harness and any by-name tooling look the
four stacks up here instead of hard-coding them.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.service.deploy import ServiceDefinition


def _services() -> Tuple[ServiceDefinition, ...]:
    # Imported here: each service module imports repro.service.deploy.
    from repro.http.service import HTTP_SERVICE
    from repro.nfs.service import NFS_SERVICE
    from repro.sql.service import SQL_SERVICE
    from repro.thor.service import THOR_SERVICE
    return (HTTP_SERVICE, NFS_SERVICE, SQL_SERVICE, THOR_SERVICE)


def get_service(name: str) -> ServiceDefinition:
    for definition in _services():
        if definition.name == name:
            return definition
    raise KeyError(f"unknown service {name!r}; known: {service_names()}")


def service_names() -> List[str]:
    return [definition.name for definition in _services()]
