"""Conformance wrapper for the web/DAV service.

The common abstract specification:

- every resource is one abstract object (via the §6 mapping library),
  keyed by its path; object 0 is the collection catalog;
- ETags are virtualized: the abstract ETag is ``"v<N>"`` where N is a
  per-resource version counter maintained by the wrapper (the underlying
  servers' inode- or hash-based tags never escape);
- conditional PUT (If-Match) is decided against abstract ETags, so all
  replicas agree;
- PROPFIND listings are name-sorted;
- a PUT body is ``bytes``: one server stores anything, another refuses
  what is not bytes, so the wrapper answers 400 before either sees it.

Dispatch, read-only gating, error enveloping, and shutdown/restart
persistence ride the service kernel (:mod:`repro.service.kernel`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.base.mappings import KeyedArrayMapping
from repro.encoding.canonical import canonical, decanonical
from repro.http.engine import HttpError, HttpStatus, _BaseServer
from repro.service.kernel import AbstractService, op


class HttpConformanceWrapper(AbstractService):
    CATALOG_INDEX = 0

    def __init__(self, server: _BaseServer, array_size: int = 512):
        super().__init__()
        self.server = server
        self.array_size = array_size
        self.resources: KeyedArrayMapping = KeyedArrayMapping(array_size,
                                                              reserved=1)
        #: path -> abstract version counter (the virtualized ETag).
        self.versions: Dict[str, int] = {}

    @property
    def num_objects(self) -> int:
        return self.array_size

    @staticmethod
    def _norm(path: str) -> str:
        return "/" + "/".join(p for p in path.split("/") if p)

    def _etag(self, path: str) -> str:
        return f'"v{self.versions[path]}"'

    # -- kernel hooks: envelopes ------------------------------------------------

    def op_key(self, kind: str) -> str:
        return kind.lower()

    def unknown_op_reply(self, kind: Any) -> tuple:
        return (int(HttpStatus.METHOD_NOT_ALLOWED), kind)

    def read_only_reply(self, kind: Any) -> tuple:
        return (int(HttpStatus.METHOD_NOT_ALLOWED),
                "write on read-only path")

    def malformed_reply(self, kind: Any, exc: Optional[Exception]) -> tuple:
        return (int(HttpStatus.BAD_REQUEST),)

    def service_error_reply(self, exc: Exception) -> Optional[tuple]:
        if isinstance(exc, HttpError):
            # Deterministic: status only; vendor reason strings differ.
            return (int(exc.status),)
        return None

    # -- operations --------------------------------------------------------------

    @op(read_only=True)
    def _op_get(self, path: str, if_none_match: str = "") -> tuple:
        path = self._norm(path)
        body, _ = self.server.get(path)
        etag = self._etag(path)
        if if_none_match and if_none_match == etag:
            return (int(HttpStatus.NOT_MODIFIED), etag)
        return (int(HttpStatus.OK), etag, body)

    @op(read_only=True)
    def _op_head(self, path: str) -> tuple:
        path = self._norm(path)
        self.server.get(path)
        return (int(HttpStatus.OK), self._etag(path))

    @op()
    def _op_put(self, path: str, body: bytes, if_match: str = "") -> tuple:
        path = self._norm(path)
        if not isinstance(body, bytes):
            raise TypeError("PUT body must be bytes")
        if if_match:
            if path not in self.versions or if_match != self._etag(path):
                return (int(HttpStatus.PRECONDITION_FAILED),)
        if path in self.versions:
            self._modify(self.resources.index_of(path))
            created, _ = self.server.put(path, body)
            self.versions[path] += 1
        else:
            with self.resources.claim() as index:
                self._modify(index)
                created, _ = self.server.put(path, body)
                self.resources.bind(path, index)
            self._modify(self.CATALOG_INDEX)
            self.versions[path] = 1
        status = HttpStatus.CREATED if created else HttpStatus.NO_CONTENT
        return (int(status), self._etag(path))

    @op()
    def _op_delete(self, path: str) -> tuple:
        path = self._norm(path)
        if path not in self.versions:
            raise HttpError(HttpStatus.NOT_FOUND)
        self._modify(self.resources.index_of(path))
        self._modify(self.CATALOG_INDEX)
        self.server.delete(path)
        self.resources.release(path)
        del self.versions[path]
        return (int(HttpStatus.NO_CONTENT),)

    @op()
    def _op_mkcol(self, path: str) -> tuple:
        path = self._norm(path)
        if path in self.versions:
            raise HttpError(HttpStatus.METHOD_NOT_ALLOWED)
        with self.resources.claim() as index:
            self._modify(index)
            self.server.mkcol(path)
            self.resources.bind(path, index)
        self.versions[path] = 0  # collections: version 0 marks "is a col"
        self._modify(self.CATALOG_INDEX)
        return (int(HttpStatus.CREATED),)

    @op(read_only=True)
    def _op_propfind(self, path: str) -> tuple:
        path = self._norm(path)
        members = self.server.propfind(path)
        # Abstract spec: name order, regardless of vendor order.
        members = tuple(sorted(members))
        return (int(HttpStatus.OK), members)

    # -- state conversions -----------------------------------------------------------

    def get_obj(self, index: int) -> bytes:
        if index == self.CATALOG_INDEX:
            catalog = tuple(sorted(
                (path, self.versions[path] == 0 and self._is_collection(path))
                for path in self.versions))
            return canonical(("catalog", catalog))
        gen = self.resources.generation(index)
        path = self.resources.key_of(index)
        if path is None:
            return canonical(("free", gen))
        if self._is_collection(path):
            return canonical(("col", gen, path))
        try:
            body, _ = self.server.get(path)
        except HttpError:
            if self.restarted_clean:
                # The resource does not exist in the fresh server yet;
                # an impossible digest forces the check to fetch it.
                return b""
            raise
        return canonical(("res", gen, path, self.versions[path], body))

    def _is_collection(self, path: str) -> bool:
        try:
            self.server.get(path)
            return False
        except HttpError as err:
            return err.status == HttpStatus.METHOD_NOT_ALLOWED

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        decoded = {i: decanonical(blob) for i, blob in objects.items()}
        # Collections before plain resources (parents first by depth).
        cols = sorted((obj for obj in decoded.values()
                       if obj[0] == "col"),
                      key=lambda o: o[2].count("/"))
        for _, gen, path in cols:
            if path not in self.versions or self.restarted_clean:
                try:
                    self.server.mkcol(path)
                except HttpError:
                    pass
        for index in sorted(decoded):
            obj = decoded[index]
            kind = obj[0]
            if index == self.CATALOG_INDEX:
                continue
            if kind == "free":
                self._put_free(index, obj[1])
            elif kind == "col":
                self._put_col(index, obj[1], obj[2])
            else:
                self._put_res(index, obj)
        if self.CATALOG_INDEX in decoded:
            self._prune_to_catalog(decoded[self.CATALOG_INDEX])

    def _put_free(self, index: int, gen: int) -> None:
        path = self.resources.key_of(index)
        if path is not None:
            try:
                self.server.delete(path)
            except HttpError:
                pass
            self.versions.pop(path, None)
        self.resources.install(None, index, gen)

    def _put_col(self, index: int, gen: int, path: str) -> None:
        old = self.resources.key_of(index)
        if old is not None and old != path:
            self._put_free(index, gen)
        self.resources.install(path, index, gen)
        self.versions[path] = 0

    def _put_res(self, index: int, obj: tuple) -> None:
        _, gen, path, version, body = obj
        old = self.resources.key_of(index)
        if old is not None and old != path:
            self._put_free(index, gen)
        try:
            self.server.put(path, body)
        except HttpError as err:
            # After a clean restart, objects may arrive before their
            # parent collections (state transfer batches by partition);
            # known collections can be re-created from the versions map.
            if err.status != HttpStatus.CONFLICT:
                raise
            self._restore_parent_collections(path)
            self.server.put(path, body)
        self.resources.install(path, index, gen)
        self.versions[path] = version

    def _restore_parent_collections(self, path: str) -> None:
        parts = [p for p in path.split("/") if p]
        prefix = ""
        for part in parts[:-1]:
            prefix += "/" + part
            if self.versions.get(prefix) == 0:
                try:
                    self.server.mkcol(prefix)
                except HttpError:
                    pass

    def _prune_to_catalog(self, catalog_obj: tuple) -> None:
        """Remove local paths absent from the transferred catalog."""
        _, catalog = catalog_obj
        wanted = {path for path, _ in catalog}
        for path in sorted(self.versions, key=lambda p: -p.count("/")):
            if path not in wanted:
                try:
                    self.server.delete(path)
                except HttpError:
                    pass
                self.resources.release(path)
                del self.versions[path]

    # -- recovery -----------------------------------------------------------------------

    def save_rep(self) -> tuple:
        return (self.resources.save(),
                tuple(sorted(self.versions.items())))

    def load_rep(self, saved: tuple) -> None:
        mapping_blob, versions = saved
        self.resources = KeyedArrayMapping.load(mapping_blob)
        self.versions = dict(versions)
        server = self.fresh_backend()
        if server is not None:
            # Start over on an empty server; resources come back through
            # put_objs during fetch-and-check.
            self.server = server
