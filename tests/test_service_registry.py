"""The service lookup reads one tuple of the four definitions."""

import pytest

from repro.http.service import HTTP_SERVICE
from repro.nfs.service import NFS_SERVICE
from repro.service.registry import get_service, service_names
from repro.sql.service import SQL_SERVICE
from repro.thor.service import THOR_SERVICE


def test_get_service_returns_each_bound_definition_by_name():
    assert service_names() == ["http", "nfs", "sql", "thor"]
    assert [get_service(name) for name in service_names()] == \
        [HTTP_SERVICE, NFS_SERVICE, SQL_SERVICE, THOR_SERVICE]


def test_unknown_service_names_the_known_ones():
    with pytest.raises(KeyError, match="known: .*'thor'"):
        get_service("ftp")
