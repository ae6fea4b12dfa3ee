"""Thor client: cached objects, transactions, optimistic commits.

Applications call :meth:`read`/:meth:`write` on object references inside
a transaction; reads are served from cached page copies (fetching pages
on miss), and commit ships the read/write sets plus new object values to
the server.  Invalidations arrive piggybacked on fetch/commit replies;
acknowledgements and page-discard notices piggyback on later requests —
all per the paper's §3.2.1 description.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.thor.objects import ObjectRecord
from repro.thor.orefs import oref_onum, oref_pagenum
from repro.thor.pages import Page


class TransactionAborted(Exception):
    """The server refused to serialize the transaction."""


class ThorTransport:
    """How the client reaches the (replicated or plain) server."""

    def call(self, op: tuple) -> tuple:
        raise NotImplementedError

    @property
    def now(self) -> float:
        raise NotImplementedError


class ThorClient:
    def __init__(self, transport: ThorTransport, client_id: str,
                 cache_bytes: int = 16 * 1024 * 1024):
        self.transport = transport
        self.client_id = client_id
        self.cache_bytes = cache_bytes
        self._pages: "OrderedDict[int, Page]" = OrderedDict()
        self._cache_used = 0
        self._pending_discards: List[int] = []
        self._invalid: Set[int] = set()
        self._reads: Set[int] = set()
        self._writes: Dict[int, bytes] = {}
        self._ts_counter = 0
        self.fetches = 0

    # -- sessions -----------------------------------------------------------------

    def start_session(self) -> int:
        result = self.transport.call(("start_session", self.client_id))
        return result[0]

    def end_session(self) -> None:
        self.transport.call(("end_session", self.client_id))

    # -- cache ---------------------------------------------------------------------

    def _take_piggyback(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        discards = tuple(self._pending_discards)
        acks = tuple(sorted(self._invalid))
        self._pending_discards = []
        return discards, acks

    def _apply_invalidations(self, invalidations: Tuple[int, ...]) -> None:
        for oref in invalidations:
            self._invalid.add(oref)
            page = self._pages.get(oref_pagenum(oref))
            if page is not None:
                page.objects.pop(oref_onum(oref), None)

    def _fetch_page(self, pagenum: int) -> Page:
        discards, acks = self._take_piggyback()
        blob, invalidations = self.transport.call(
            ("fetch", self.client_id, pagenum, discards, acks))
        self._invalid.difference_update(acks)
        self.fetches += 1
        page = Page.decode(pagenum, blob)
        self._apply_invalidations(invalidations)
        self._insert_page(page)
        return page

    def _insert_page(self, page: Page) -> None:
        old = self._pages.pop(page.pagenum, None)
        if old is not None:
            self._cache_used -= old.size
        self._pages[page.pagenum] = page
        self._cache_used += page.size
        while self._cache_used > self.cache_bytes and len(self._pages) > 1:
            evicted_num, evicted = self._pages.popitem(last=False)
            self._cache_used -= evicted.size
            self._pending_discards.append(evicted_num)

    def drop_caches(self) -> None:
        """Cold-start the client (used between benchmark traversals)."""
        self._pending_discards.extend(self._pages.keys())
        self._pages.clear()
        self._cache_used = 0

    # -- transactions ----------------------------------------------------------------

    def begin(self) -> None:
        self._reads = set()
        self._writes = {}

    def read(self, oref: int) -> ObjectRecord:
        self._reads.add(oref)
        pending = self._writes.get(oref)
        if pending is not None:
            return ObjectRecord.decode(pending)
        pagenum, onum = oref_pagenum(oref), oref_onum(oref)
        page = self._pages.get(pagenum)
        if page is not None:
            self._pages.move_to_end(pagenum)
        if page is None or onum not in page:
            page = self._fetch_page(pagenum)
        value = page.objects.get(onum)
        if value is None:
            raise KeyError(f"no object at oref {oref:#010x}")
        return ObjectRecord.decode(value)

    def write(self, oref: int, record: ObjectRecord) -> None:
        self._reads.add(oref)
        self._writes[oref] = record.encode()

    def commit(self) -> None:
        """Ship the transaction; raises :class:`TransactionAborted`."""
        self._ts_counter += 1
        timestamp = int(self.transport.now * 1_000_000) + self._ts_counter
        discards, acks = self._take_piggyback()
        committed, invalidations = self.transport.call(
            ("commit", self.client_id, timestamp,
             tuple(sorted(self._reads)),
             tuple(sorted(self._writes.items())), discards, acks))
        self._invalid.difference_update(acks)
        self._apply_invalidations(invalidations)
        if committed:
            # Update cached copies with the committed values.
            for oref, value in self._writes.items():
                page = self._pages.get(oref_pagenum(oref))
                if page is not None:
                    page.objects[oref_onum(oref)] = value
        self._reads, self._writes = set(), {}
        if not committed:
            raise TransactionAborted(self.client_id)

    def run_transaction(self, body, retries: int = 5):
        """Run ``body(client)`` in a transaction, retrying aborts."""
        for attempt in range(retries):
            self.begin()
            result = body(self)
            try:
                self.commit()
                return result
            except TransactionAborted:
                if attempt == retries - 1:
                    raise
        raise TransactionAborted(self.client_id)
