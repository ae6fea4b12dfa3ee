"""The modified object buffer (MOB) and its lazy flusher (Ghemawat 1995).

Committed modifications are buffered as individual objects rather than
installed to their disk pages immediately; a flusher installs the oldest
entries when the buffer passes its high-water mark.  How much is flushed
when is a *concrete*, per-replica nondeterministic detail — the abstract
page value is always disk + pending MOB entries.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Iterable, List, Tuple

from repro.thor.orefs import oref_onum, oref_pagenum


class ModifiedObjectBuffer:
    """oref -> pending object bytes, in commit order."""

    FLUSH_FRACTION = 0.5  # a flush drains to about this share of capacity

    def __init__(self, capacity_bytes: int, flush_seed: int = 0):
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[int, bytes]" = OrderedDict()
        self._bytes = 0
        self._rng = random.Random(flush_seed)
        self.flushes = 0

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, oref: int, value: bytes) -> None:
        old = self._entries.pop(oref, None)
        if old is not None:
            self._bytes -= len(old)
        self._entries[oref] = value
        self._bytes += len(value)

    def pending_for_page(self, pagenum: int) -> Dict[int, bytes]:
        """onum -> value for every buffered modification of this page."""
        return {oref_onum(oref): value
                for oref, value in self._entries.items()
                if oref_pagenum(oref) == pagenum}

    def discard_page(self, pagenum: int) -> None:
        """Drop buffered modifications for a page (state transfer installs
        a complete new page value that must not be re-overwritten)."""
        for oref in [o for o in self._entries
                     if oref_pagenum(o) == pagenum]:
            self._bytes -= len(self._entries.pop(oref))

    @property
    def needs_flush(self) -> bool:
        return self._bytes > self.capacity_bytes

    def take_flush_batch(self) -> List[Tuple[int, Dict[int, bytes]]]:
        """Oldest entries grouped by page, enough to drop below the mark.

        The batch size is jittered per replica (the concrete
        nondeterminism the abstraction hides).
        """
        self.flushes += 1
        target = self.capacity_bytes * (
            self.FLUSH_FRACTION * (0.8 + 0.4 * self._rng.random()))
        by_page: Dict[int, Dict[int, bytes]] = {}
        while self._entries and self._bytes > target:
            oref, value = self._entries.popitem(last=False)
            self._bytes -= len(value)
            by_page.setdefault(oref_pagenum(oref), {})[oref_onum(oref)] = value
        return sorted(by_page.items())

    def orefs(self) -> Iterable[int]:
        return self._entries.keys()
