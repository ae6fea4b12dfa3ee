"""Two off-the-shelf web/DAV servers behind one interface.

Both store a tree of resources addressed by path and support the same
five methods; they disagree about everything the HTTP specs leave open:

- **ETags**: the Apache-like server derives them from inode numbers and
  change counters (differs per instance and across restarts — like real
  Apache's inode-based ETags); the nginx-like server hashes content
  (stable, but format-different);
- **collection listings**: insertion order vs name-sorted;
- **error details**: different reason strings for the same status.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError


class HttpStatus(enum.IntEnum):
    OK = 200
    CREATED = 201
    NO_CONTENT = 204
    NOT_MODIFIED = 304
    BAD_REQUEST = 400
    NOT_FOUND = 404
    METHOD_NOT_ALLOWED = 405
    CONFLICT = 409          # missing parent collection
    PRECONDITION_FAILED = 412


class HttpError(ServiceError):
    def __init__(self, status: HttpStatus, reason: str = ""):
        super().__init__(f"{int(status)} {reason}")
        self.status = status


def _split(path: str) -> List[str]:
    parts = [p for p in path.split("/") if p]
    if any(p in (".", "..") for p in parts):
        raise HttpError(HttpStatus.BAD_REQUEST, "dot segments")
    return parts


class _Resource:
    __slots__ = ("body", "children")

    def __init__(self, collection: bool):
        self.body: Optional[bytes] = None if collection else b""
        self.children: Optional[Dict[str, "_Resource"]] = \
            {} if collection else None

    @property
    def is_collection(self) -> bool:
        return self.children is not None


class _BaseServer:
    """Common resource-tree mechanics; subclasses differ in ETags,
    listing order, and reason strings."""

    vendor = "generic"

    def __init__(self) -> None:
        self.root = _Resource(collection=True)

    # -- vendor hooks ---------------------------------------------------------

    def _etag(self, resource: _Resource, path: str) -> str:
        raise NotImplementedError

    def _order(self, names: List[str], resource: _Resource) -> List[str]:
        return names

    def _reason(self, status: HttpStatus) -> str:
        return status.name

    # -- resolution -------------------------------------------------------------

    def _resolve(self, path: str) -> _Resource:
        node = self.root
        for part in _split(path):
            if not node.is_collection or part not in node.children:
                raise HttpError(HttpStatus.NOT_FOUND, self._reason(
                    HttpStatus.NOT_FOUND))
            node = node.children[part]
        return node

    def _resolve_parent(self, path: str) -> Tuple[_Resource, str]:
        parts = _split(path)
        if not parts:
            raise HttpError(HttpStatus.METHOD_NOT_ALLOWED, "root")
        node = self.root
        for part in parts[:-1]:
            if not node.is_collection or part not in node.children:
                raise HttpError(HttpStatus.CONFLICT,
                                "missing intermediate collection")
            node = node.children[part]
        if not node.is_collection:
            raise HttpError(HttpStatus.CONFLICT, "parent is not a collection")
        return node, parts[-1]

    # -- methods -------------------------------------------------------------------

    def get(self, path: str) -> Tuple[bytes, str]:
        """Returns (body, etag)."""
        resource = self._resolve(path)
        if resource.is_collection:
            raise HttpError(HttpStatus.METHOD_NOT_ALLOWED, "collection")
        return resource.body, self._etag(resource, path)

    def put(self, path: str, body: bytes) -> Tuple[bool, str]:
        """Returns (created?, new etag)."""
        parent, name = self._resolve_parent(path)
        created = name not in parent.children
        if created:
            parent.children[name] = _Resource(collection=False)
        resource = parent.children[name]
        if resource.is_collection:
            raise HttpError(HttpStatus.METHOD_NOT_ALLOWED, "collection")
        resource.body = body
        self._note_change(resource, path)
        return created, self._etag(resource, path)

    def delete(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        if name not in parent.children:
            raise HttpError(HttpStatus.NOT_FOUND, self._reason(
                HttpStatus.NOT_FOUND))
        del parent.children[name]

    def mkcol(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise HttpError(HttpStatus.METHOD_NOT_ALLOWED, "exists")
        parent.children[name] = _Resource(collection=True)

    def propfind(self, path: str) -> List[Tuple[str, bool]]:
        """(name, is_collection) for a collection's members."""
        resource = self._resolve(path)
        if not resource.is_collection:
            raise HttpError(HttpStatus.METHOD_NOT_ALLOWED, "not a collection")
        names = self._order(list(resource.children), resource)
        return [(name, resource.children[name].is_collection)
                for name in names]

    def _note_change(self, resource: _Resource, path: str) -> None:
        """Vendor hook invoked after content changes."""


class ApacheLikeServer(_BaseServer):
    """ETags from inode number + change counter — nondeterministic across
    instances (each replica numbers inodes by its own arrival order) and
    bumps differently across restarts; insertion-ordered listings."""

    vendor = "apachelike"

    def __init__(self, boot_salt: int = 0):
        super().__init__()
        self._inode_counter = itertools.count(1000 + boot_salt * 7919)
        # Keyed on the resource object itself, not id(): the strong
        # reference keeps a deleted resource's slot from being re-issued
        # to a new object (id() re-use would alias their change
        # counters).  Lookups only — never iterated.
        self._inodes: Dict[_Resource, int] = {}
        self._changes: Dict[_Resource, int] = {}

    def _ids(self, resource: _Resource) -> _Resource:
        if resource not in self._inodes:
            self._inodes[resource] = next(self._inode_counter)
            self._changes[resource] = 0
        return resource

    def _etag(self, resource, path):
        key = self._ids(resource)
        return f'"{self._inodes[key]:x}-{self._changes[key]:x}"'

    def _note_change(self, resource, path):
        key = self._ids(resource)
        self._changes[key] += 1


class NginxLikeServer(_BaseServer):
    """ETags from a content hash (stable across replicas, but a different
    *format* than Apache's); name-sorted listings."""

    vendor = "nginxlike"

    def _etag(self, resource, path):
        digest = hashlib.md5(resource.body or b"").hexdigest()[:16]
        return f'W/"{digest}"'

    def _order(self, names, resource):
        return sorted(names)
