"""Conformance wrapper for the relational service.

Common abstract specification (what ODBC under-specifies, pinned down):

- the catalog (abstract object 0) lists tables sorted by name;
- every row is one abstract object, identified by (table, primary key)
  through a :class:`~repro.base.mappings.KeyedArrayMapping` — slots are
  allocated deterministically, so replicas agree on the array layout no
  matter what row ids their engines use internally;
- ``scan`` returns rows in primary-key order (both engines' native scan
  orders are hidden);
- all primary keys of a table share one type, and a tuple key's members
  share it position by position (:func:`key_type`): the b-tree engine
  orders keys and cannot compare an ``int`` with a ``str``, the hash
  engine never compares them, so the wrapper refuses such an insert
  with ``22018`` before either engine sees it;
- errors are the deterministic SQLSTATE-ish codes of the spec, never
  engine internals.

Dispatch, read-only gating, error enveloping, and shutdown/restart
persistence ride the service kernel (:mod:`repro.service.kernel`); this
module declares the ops and the state conversions.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.base.mappings import KeyedArrayMapping
from repro.encoding.canonical import canonical, decanonical
from repro.errors import StateTransferError
from repro.service.kernel import AbstractService, op
from repro.sql.engine import SqlEngine, SqlEngineError


def key_type(key: Any) -> str:
    """The abstract type of a primary key: its type name, or for a tuple
    the abstract types of its members."""
    if isinstance(key, tuple):
        return "(" + ",".join(map(key_type, key)) + ")"
    return type(key).__name__


class RowMapping(KeyedArrayMapping):
    """``(table, key)`` rows, plus per table the number of live rows of
    each key type.  Inserts keep a table's keys to one type, so in any
    state the replicas agree on a table has at most one entry — the
    answer the insert path needs, without walking the rows."""

    def __init__(self, size: int, reserved: int = 0):
        super().__init__(size, reserved)
        self.key_types: Dict[str, Dict[str, int]] = {}

    def _link(self, key: Tuple[str, Any], index: int) -> None:
        super()._link(key, index)
        types = self.key_types.setdefault(key[0], {})
        name = key_type(key[1])
        types[name] = types.get(name, 0) + 1

    def _unlink(self, key: Tuple[str, Any]) -> int:
        # Count by the key that was linked, not the caller's: 1, 1.0 and
        # True are one dict key, and a client's delete may spell it any way.
        table, stored = self._index_to_key[self._key_to_index[key]]
        index = super()._unlink(key)
        types = self.key_types[table]
        name = key_type(stored)
        if types[name] > 1:
            types[name] -= 1
        else:
            del types[name]
            if not types:
                del self.key_types[table]
        return index


class SqlConformanceWrapper(AbstractService):
    """One replica's veneer over one relational engine."""

    CATALOG_INDEX = 0

    def __init__(self, engine: SqlEngine, array_size: int = 1024):
        super().__init__()
        self.engine = engine
        self.array_size = array_size
        self.rows = RowMapping(array_size, reserved=1)

    @property
    def num_objects(self) -> int:
        return self.array_size

    # -- kernel hooks: envelopes ------------------------------------------------

    def ok_reply(self, payload: tuple) -> tuple:
        return ("OK",) + payload

    def unknown_op_reply(self, kind: Any) -> tuple:
        return ("ERROR", "42000", f"unknown op {kind}")

    def read_only_reply(self, kind: Any) -> tuple:
        return ("ERROR", "25006", "write on read-only path")

    def malformed_reply(self, kind: Any, exc: Optional[Exception]) -> tuple:
        return ("ERROR", "42000",
                type(exc).__name__ if exc is not None else "malformed")

    def service_error_reply(self, exc: Exception) -> Optional[tuple]:
        if isinstance(exc, SqlEngineError):
            return ("ERROR", exc.code, str(exc))
        return None

    # -- operations --------------------------------------------------------------

    @op()
    def _op_create_table(self, name: str, columns: tuple, key: str) -> tuple:
        self._modify(self.CATALOG_INDEX)
        self.engine.create_table(name, tuple(columns), key)
        return ()

    @op()
    def _op_drop_table(self, name: str) -> tuple:
        self._modify(self.CATALOG_INDEX)
        # Every row of the table disappears from the abstract state.
        doomed = [row_key for row_key, _ in self.rows.items()
                  if row_key[0] == name]
        for row_key in doomed:
            index = self.rows.index_of(row_key)
            self._modify(index)
            self.rows.release(row_key)
        self.engine.drop_table(name)
        return ()

    @op(read_only=True)
    def _op_tables(self) -> tuple:
        catalog = sorted(self.engine.tables())
        return (tuple((name, tuple(cols), key)
                      for name, cols, key in catalog),)

    @op()
    def _op_insert(self, table: str, values: tuple) -> tuple:
        key_pos = self._key_pos(table)
        key = values[key_pos]
        # Abstract-spec rule: all keys in a table share one type, member
        # by member for tuple keys.  The engines genuinely disagree here
        # (the b-tree store cannot order mixed int/str keys, the hash
        # store can), so the wrapper must virtualize the check or
        # replicas running different engines would diverge — §2.4's
        # "very different behavior" case.
        new_type = key_type(key)
        existing_type = self._key_type_of(table)
        if existing_type is not None and new_type != existing_type:
            raise SqlEngineError(
                "22018", f"key type {new_type} does not match "
                         f"table's {existing_type}")
        row_key = (table, key)
        if row_key in self.rows:
            raise SqlEngineError("23000", f"duplicate key {key!r}")
        with self.rows.claim() as index:
            self._modify(index)  # pre-image: a free slot at the old generation
            self.engine.insert(table, tuple(values))
            gen = self.rows.bind(row_key, index)
        return (index, gen)

    @op(read_only=True)
    def _op_select(self, table: str, key) -> tuple:
        row = self.engine.select(table, key)
        if row is None:
            raise SqlEngineError("02000", "no data")
        return (tuple(row),)

    @op()
    def _op_update(self, table: str, key, values: tuple) -> tuple:
        row_key = (table, key)
        index = self.rows.index_of(row_key)
        if index is None:
            raise SqlEngineError("02000", "no data")
        self._modify(index)
        changed = self.engine.update(table, key, tuple(values))
        return (changed,)

    @op()
    def _op_delete(self, table: str, key) -> tuple:
        row_key = (table, key)
        index = self.rows.index_of(row_key)
        if index is None:
            raise SqlEngineError("02000", "no data")
        self._modify(index)
        self.engine.delete(table, key)
        self.rows.release(row_key)
        return ()

    @op(read_only=True)
    def _op_scan(self, table: str) -> tuple:
        rows = self.engine.scan(table)
        key_pos = self._key_pos(table)
        # The spec pins scan order: canonical byte order of the encoded
        # primary key — deterministic for any key type, identical at
        # every replica no matter the engine's native order.
        return (tuple(tuple(r) for r in
                      sorted(rows, key=lambda r: canonical(r[key_pos]))),)

    @op(read_only=True)
    def _op_row_count(self, table: str) -> tuple:
        return (self.engine.row_count(table),)

    def _key_type_of(self, table: str) -> Optional[str]:
        """Type of this table's keys, or None when it has no live row."""
        types = self.rows.key_types.get(table)
        return min(types) if types else None

    def _key_pos(self, table: str) -> int:
        for name, columns, key in self.engine.tables():
            if name == table:
                return columns.index(key)
        raise SqlEngineError("42S02", table)

    # -- abstraction function & inverse ----------------------------------------------

    def get_obj(self, index: int) -> bytes:
        if index == self.CATALOG_INDEX:
            catalog = tuple(sorted((name, tuple(cols), key)
                                   for name, cols, key
                                   in self.engine.tables()))
            return canonical(("catalog", catalog))
        gen = self.rows.generation(index)
        row_key = self.rows.key_of(index)
        if row_key is None:
            return canonical(("free", gen))
        table, key = row_key
        try:
            row = self.engine.select(table, key)
        except SqlEngineError:
            if self.restarted_clean:
                return b""  # the fresh engine has no such table yet
            raise
        if row is None:
            if self.restarted_clean:
                # After a clean-recovery restart the row does not exist
                # in the fresh engine yet.  Return a marker that can
                # never match a real row's digest, so the check fetches
                # it.
                return b""
            raise StateTransferError(
                f"{self.engine.vendor}: mapped row {row_key!r} missing")
        return canonical(("row", gen, table, canonical(key), tuple(row)))

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        # Catalog first: creating tables is a dependency of their rows.
        if self.CATALOG_INDEX in objects:
            self._put_catalog(objects[self.CATALOG_INDEX])
        # Rows leave before rows arrive: a table emptied and refilled
        # with keys of another type since the checkpoint must never hold
        # both at once — the B-tree engine cannot order them.
        arriving = {}
        for index in sorted(objects):
            if index == self.CATALOG_INDEX:
                continue
            decoded = decanonical(objects[index])
            if decoded[0] == "free":
                self._put_free(index, decoded[1])
                continue
            _, gen, table, key_blob, values = decoded
            row_key = (table, decanonical(key_blob))
            arriving[index] = (gen, row_key, values)
            if self.rows.key_of(index) not in (None, row_key):
                self._put_free(index, self.rows.generation(index))
        for index, (gen, row_key, values) in arriving.items():
            self._put_row(index, gen, row_key, values)

    def _put_catalog(self, blob: bytes) -> None:
        tag, catalog = decanonical(blob)
        if tag != "catalog":
            raise StateTransferError("object 0 must be the catalog")
        wanted = {name: (tuple(cols), key) for name, cols, key in catalog}
        existing = {name: (tuple(cols), key)
                    for name, cols, key in self.engine.tables()}
        for name in existing:
            if name not in wanted or wanted[name] != existing[name]:
                self.engine.drop_table(name)
        for name, (cols, key) in sorted(wanted.items()):
            if name not in existing or wanted[name] != existing.get(name):
                if name in existing:
                    pass  # already dropped above
                self.engine.create_table(name, cols, key)

    def _put_free(self, index: int, gen: int) -> None:
        row_key = self.rows.key_of(index)
        if row_key is not None:
            table, key = row_key
            try:
                self.engine.delete(table, key)
            except SqlEngineError:
                pass  # table dropped by the catalog update
        self.rows.install(None, index, gen)

    def _put_row(self, index: int, gen: int, row_key: Tuple[str, Any],
                 values: tuple) -> None:
        table, key = row_key
        if self.engine.select(table, key) is None:
            self.engine.insert(table, tuple(values))
        else:
            self.engine.update(table, key, tuple(values))
        self.rows.install(row_key, index, gen)

    # -- recovery ---------------------------------------------------------------------

    def save_rep(self) -> bytes:
        return self.rows.save()

    def load_rep(self, saved: bytes) -> None:
        self.rows = RowMapping.load(saved)
        engine = self.fresh_backend()
        if engine is not None:
            # Start over on an empty engine; every row's value comes
            # back through put_objs during fetch-and-check.
            self.engine = engine
