"""Thor conformance wrapper and state-conversion functions (§3.2.2–§3.2.4).

The abstract state array is partitioned into fixed-size areas::

    [0]                 VQ meta (the abort threshold)
    [1, 1+P)            database pages
    [1+P, 1+P+V)        validation-queue entries
    [1+P+V, 1+P+V+C)    per-client invalid sets
    [1+P+V+C, ...+P)    cached-pages directory

The paper's four areas are pages/VQ/ISs/directory; we add one meta object
for the VQ abort threshold, which is not derivable from the surviving
entries after an eviction but determines future validation outcomes — it
must transfer with the state (documented as a deviation in DESIGN.md).

The wrapper keeps two conformance structures (paper: "the VQ array and
the client array"): ``vq_array`` maps abstract VQ indices to transaction
timestamps, and ``clients`` — a §6 :class:`KeyedArrayMapping` — maps
abstract client numbers to the client ids Thor keys its per-client
structures by.  State conversions use the server's *internal* APIs (as
the paper did — the external interface is too narrow), treating them as
black boxes.

Dispatch, error enveloping, and shutdown/restart persistence ride the
service kernel (:mod:`repro.service.kernel`).
"""

from __future__ import annotations

from functools import partialmethod
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.base.mappings import KeyedArrayMapping
from repro.base.nondet import TimestampAgreement
from repro.encoding.canonical import canonical, decanonical
from repro.errors import StateTransferError
from repro.service.kernel import AbstractService, op
from repro.thor.pages import Page
from repro.thor.server import ThorServer
from repro.thor.vq import VqEntry

# A commit timestamp further than this from the agreed time is refused.
COMMIT_TS_SLACK_US = 10_000_000


class ThorConformanceWrapper(AbstractService):
    def __init__(self, server: ThorServer, num_pages: int,
                 max_clients: int = 16,
                 clock: Callable[[], float] = lambda: 0.0,
                 op_cost: float = 0.0,
                 commit_byte_cost: float = 0.0):
        super().__init__()
        self.server = server
        self.per_op_cost = op_cost  # kernel charges this per request
        # Per-KB cost of processing committed object values (validation,
        # MOB insertion, checkpoint maintenance) — the paper's T2b commits
        # are dominated by this.
        self.commit_byte_cost = commit_byte_cost
        self.num_pages = num_pages
        self.vq_capacity = server.vq.capacity
        self.max_clients = max_clients
        self.timestamps = TimestampAgreement(clock)
        # Conformance representation (paper §3.2.3).
        self.vq_array: List[int] = [0] * self.vq_capacity
        self.clients: KeyedArrayMapping[str] = KeyedArrayMapping(max_clients)
        #: The abstract areas in index order, with their sizes (module
        #: docstring): every index below derives from this table.
        self.areas: Dict[str, int] = {
            "meta": 1, "page": num_pages, "vq": self.vq_capacity,
            "is": max_clients, "dir": num_pages}
        # The server's and its disk's CPU go through the library.
        server.charge = server.disk.charge = self.charge

    # -- area index arithmetic -------------------------------------------------------

    @property
    def num_objects(self) -> int:
        return sum(self.areas.values())

    def _index(self, area: str, offset: int) -> int:
        """The abstract index of object ``offset`` of ``area``."""
        for name, size in self.areas.items():
            if name == area:
                return offset
            offset += size
        raise KeyError(area)

    def _locate(self, index: int) -> Tuple[str, int]:
        """The area abstract object ``index`` lies in, and its offset
        there."""
        offset = index
        for name, size in self.areas.items():
            if offset < size:
                return name, offset
            offset -= size
        raise IndexError(f"abstract index {index} out of range")

    page_index = partialmethod(_index, "page")   # (pagenum)
    vq_index = partialmethod(_index, "vq")       # (slot)
    is_index = partialmethod(_index, "is")       # (client number)
    dir_index = partialmethod(_index, "dir")     # (pagenum)

    # -- kernel hooks: envelopes ------------------------------------------------

    def ok_reply(self, payload: tuple) -> tuple:
        return (0,) + payload

    def unknown_op_reply(self, kind: Any) -> tuple:
        return (1, f"unknown op {kind}")

    def read_only_reply(self, kind: Any) -> tuple:
        # Every Thor op mutates server state (even fetch updates the
        # cached-pages directory), so nothing rides the read-only path.
        return (1, "thor ops are not read-only")

    def malformed_reply(self, kind: Any, exc: Optional[Exception]) -> tuple:
        return (1, type(exc).__name__ if exc is not None else "malformed")

    def service_error_reply(self, exc: Exception) -> Optional[tuple]:
        # All handler failures become deterministic error replies: the
        # server's own exceptions are deterministic functions of the
        # agreed request sequence.
        return (1, type(exc).__name__)

    # -- operations --------------------------------------------------------------

    @op("start_session")
    def _op_start_session(self, agreed_us: int, client_id: str) -> tuple:
        existing = self.clients.index_of(client_id)
        if existing is not None:
            return (existing,)
        try:
            number = self.clients.reserve()
        except IndexError:
            raise RuntimeError("client table full") from None
        self._modify(self.is_index(number))
        self.clients.bind(client_id, number)
        self.server.start_session(client_id)
        return (number,)

    @op("end_session")
    def _op_end_session(self, agreed_us: int, client_id: str) -> tuple:
        number = self.clients.index_of(client_id)
        if number is None:
            return ()
        self._modify(self.is_index(number))
        for pagenum in range(self.num_pages):
            if client_id in self.server.directory.clients_caching(pagenum):
                self._modify(self.dir_index(pagenum))
        self.clients.release(client_id)
        self.server.end_session(client_id)
        return ()

    @op("fetch")
    def _op_fetch(self, agreed_us: int, client_id: str, pagenum: int,
                  discards: tuple, acks: tuple) -> tuple:
        if not 0 <= pagenum < self.num_pages:
            raise ValueError(f"pagenum {pagenum} out of range")
        number = self.clients.index_of(client_id)
        if number is None:
            raise RuntimeError(f"no session for {client_id}")
        self._modify(self.dir_index(pagenum))
        for discarded in discards:
            if 0 <= discarded < self.num_pages:
                self._modify(self.dir_index(discarded))
        if acks:
            self._modify(self.is_index(number))
        result = self.server.fetch(client_id, pagenum, tuple(discards),
                                   tuple(acks))
        return (result.page_blob, result.invalidations)

    @op("commit")
    def _op_commit(self, agreed_us: int, client_id: str, timestamp: int,
                   reads: tuple, writes: tuple, discards: tuple,
                   acks: tuple) -> tuple:
        number = self.clients.index_of(client_id)
        if number is None:
            raise RuntimeError(f"no session for {client_id}")
        # Faulty clients must not commit with wild timestamps (they would
        # cause spurious aborts); validate against the *agreed* receive
        # time, so all correct replicas reach the same decision.
        if abs(timestamp - agreed_us) > COMMIT_TS_SLACK_US:
            return (False, tuple(sorted(
                self.server.invalid_sets.get(client_id))))
        from repro.thor.orefs import oref_pagenum
        write_dict = dict(writes)
        if self.library is not None and write_dict:
            written_kb = sum(len(v) for v in write_dict.values()) / 1024.0
            self.library.charge(self.commit_byte_cost * written_kb)
        for discarded in discards:
            if 0 <= discarded < self.num_pages:
                self._modify(self.dir_index(discarded))
        self._modify(self.is_index(number))
        written_pages = sorted({oref_pagenum(oref) for oref in write_dict})
        for pagenum in written_pages:
            if not 0 <= pagenum < self.num_pages:
                raise ValueError(f"write to page {pagenum} out of range")
            self._modify(self.page_index(pagenum))
            for other in self.server.directory.clients_caching(pagenum):
                other_number = self.clients.index_of(other)
                if other_number is not None and other != client_id:
                    self._modify(self.is_index(other_number))
        slot = self._predict_vq_slot()
        self._modify(self.vq_index(slot))
        self._modify(self._index("meta", 0))  # eviction may advance it
        result = self.server.commit(client_id, timestamp,
                                    frozenset(reads), write_dict,
                                    tuple(discards), tuple(acks))
        if result.committed:
            self.vq_array[slot] = timestamp
        return (result.committed, result.invalidations)

    def _predict_vq_slot(self) -> int:
        """Mirror of the server's VQ allocation (abstract spec: lowest
        free index; evict the lowest timestamp when full)."""
        for slot, ts in enumerate(self.vq_array):
            if ts == 0:
                return slot
        return min(range(self.vq_capacity), key=lambda s: self.vq_array[s])

    # -- abstraction function ----------------------------------------------------------------

    def get_obj(self, index: int) -> bytes:
        area, offset = self._locate(index)
        if area == "meta":
            return canonical((self.server.vq.threshold,))
        if area == "page":
            return self.server.current_page(offset).encode()
        if area == "vq":
            ts = self.vq_array[offset]
            if ts == 0:
                return canonical((0,))
            entry = self.server.vq.find_by_timestamp(ts)
            if entry is None:
                raise StateTransferError(
                    f"VQ array slot {offset} ts {ts} missing from server VQ")
            return canonical((entry.timestamp, entry.status,
                              tuple(sorted(entry.reads)),
                              tuple(sorted(entry.writes))))
        if area == "is":
            client_id = self.clients.key_of(offset)
            if client_id is None:
                return canonical((None,))
            orefs = tuple(sorted(self.server.invalid_sets.get(client_id)))
            return canonical((client_id, orefs))
        caching = self.server.directory.clients_caching(offset)
        numbers = tuple(sorted(self.clients.index_of(c) for c in caching
                               if c in self.clients))
        return canonical((numbers,))

    # -- inverse abstraction function -------------------------------------------------------------

    def put_objs(self, objects: Dict[int, bytes]) -> None:
        # Ascending index order processes areas in dependency order:
        # meta, pages, VQ, invalid sets (which rebuild the client array),
        # then the directory (which maps client numbers through it).
        put = {"meta": self._put_meta, "page": self._put_page,
               "vq": self._put_vq, "is": self._put_invalid_set,
               "dir": self._put_directory}
        for index in sorted(objects):
            area, offset = self._locate(index)
            put[area](offset, objects[index])

    def _put_meta(self, _: int, blob: bytes) -> None:
        (self.server.vq.threshold,) = decanonical(blob)

    def _put_page(self, pagenum: int, blob: bytes) -> None:
        self.server.install_page_value(Page.decode(pagenum, blob))

    def _put_vq(self, slot: int, blob: bytes) -> None:
        decoded = decanonical(blob)
        if decoded == (0,):
            self.server.vq.set_entry(slot, None)
            self.vq_array[slot] = 0
            return
        ts, status, reads, writes = decoded
        self.server.vq.set_entry(slot, VqEntry(ts, frozenset(reads),
                                               frozenset(writes), status))
        self.vq_array[slot] = ts

    def _put_invalid_set(self, number: int, blob: bytes) -> None:
        decoded = decanonical(blob)
        client_id = decoded[0]     # (None,) or (client_id, orefs)
        old = self.clients.key_of(number)
        if old is not None and old != client_id:
            self.server.invalid_sets.end_client(old)
        # A client the source renumbered moves here from its old slot.
        self.clients.install(client_id, number, 0)
        if client_id is not None:
            self.server.invalid_sets.start_client(client_id)
            self.server.invalid_sets.replace(client_id, set(decoded[1]))

    def _put_directory(self, pagenum: int, blob: bytes) -> None:
        (numbers,) = decanonical(blob)
        clients = set()
        for number in numbers:
            client_id = self.clients.key_of(number)
            if client_id is None:
                raise StateTransferError(
                    f"directory page {pagenum} references free client "
                    f"number {number}")
            clients.add(client_id)
        self.server.directory.replace(pagenum, clients)

    # -- proactive recovery ---------------------------------------------------------------------------

    def save_rep(self) -> tuple:
        return (tuple(self.vq_array),
                tuple(map(self.clients.key_of, range(self.max_clients))))

    def load_rep(self, saved: tuple) -> None:
        """The server process restarts: page cache, MOB, VQ, invalid sets
        and directory are volatile and lost (only the disk survives).
        The conformance arrays reload from the shutdown file; the lost
        server state is repaired by the ensuing state transfer, whose
        digest checks flag every abstract object that depended on it."""
        from repro.thor.cache import PageCache
        from repro.thor.mob import ModifiedObjectBuffer
        from repro.thor.vq import ValidationQueue
        from repro.thor.clients_state import CachedPagesDirectory, InvalidSets
        server = self.server
        server.cache = PageCache(server.config.cache_pages,
                                 seed=server.config.seed + 17)
        server.mob = ModifiedObjectBuffer(server.config.mob_bytes,
                                          flush_seed=server.config.seed + 18)
        server.vq = ValidationQueue(server.config.vq_capacity)
        server.invalid_sets = InvalidSets()
        server.directory = CachedPagesDirectory()
        _vq_array, client_ids = saved
        self.vq_array = [0] * self.vq_capacity
        self.clients = KeyedArrayMapping(self.max_clients)
        for number, client_id in enumerate(client_ids):
            if client_id is not None:
                self.clients.install(client_id, number, 0)
                self.server.invalid_sets.start_client(client_id)
