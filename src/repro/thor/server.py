"""The Thor server: fetch/commit with OCC over pages, cache, and MOB.

The server's *concrete* behaviour is nondeterministic (seeded cache
eviction jitter, jittered MOB flush batches) — replicas running the very
same code drift apart internally while their abstract state stays
identical.  That is the §3.2 scenario: same implementation, wrapped
because it is nondeterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.thor.cache import PageCache
from repro.thor.clients_state import CachedPagesDirectory, InvalidSets
from repro.thor.mob import ModifiedObjectBuffer
from repro.thor.orefs import make_oref, oref_onum, oref_pagenum
from repro.thor.pages import Page, PageStore


class ThorError(Exception):
    pass


@dataclass
class ThorServerConfig:
    cache_pages: int = 1024
    mob_bytes: int = 4 * 1024 * 1024
    vq_capacity: int = 256
    seed: int = 0
    disk_seek_cost: float = 0.0
    disk_byte_cost: float = 0.0


@dataclass
class CommitResult:
    committed: bool
    invalidations: Tuple[int, ...] = ()


@dataclass
class FetchResult:
    page_blob: bytes
    invalidations: Tuple[int, ...] = ()


class ThorServer:
    def __init__(self, config: Optional[ThorServerConfig] = None):
        from repro.thor.vq import ValidationQueue
        self.config = config or ThorServerConfig()
        # Bound here and on the disk by the conformance wrapper (to its
        # library) or by the unreplicated baseline (to its node).
        self.charge: Callable[[float], None] = lambda seconds: None
        self.disk = PageStore(self.config.disk_seek_cost,
                              self.config.disk_byte_cost, self.charge)
        self.cache = PageCache(self.config.cache_pages,
                               seed=self.config.seed)
        self.mob = ModifiedObjectBuffer(self.config.mob_bytes,
                                        flush_seed=self.config.seed + 1)
        self.vq = ValidationQueue(self.config.vq_capacity)
        self.invalid_sets = InvalidSets()
        self.directory = CachedPagesDirectory()
        self.commits = 0
        self.aborts = 0

    # -- page access -------------------------------------------------------------

    def current_page(self, pagenum: int) -> Page:
        """Disk/cache page with pending MOB modifications applied — this
        is the page value the abstract state exposes."""
        page = self.cache.get(pagenum)
        if page is None:
            page = self.disk.read(pagenum)
            self.cache.put(page)
        pending = self.mob.pending_for_page(pagenum)
        if not pending:
            return page
        merged = page.copy()
        merged.objects.update(pending)
        return merged

    def read_object(self, oref: int) -> Optional[bytes]:
        page = self.current_page(oref_pagenum(oref))
        return page.objects.get(oref_onum(oref))

    # -- sessions -------------------------------------------------------------------

    def start_session(self, client_id: str) -> None:
        self.invalid_sets.start_client(client_id)

    def end_session(self, client_id: str) -> None:
        self.invalid_sets.end_client(client_id)
        self.directory.drop_client(client_id)

    # -- fetch ------------------------------------------------------------------------

    def fetch(self, client_id: str, pagenum: int,
              discarded_pages: Tuple[int, ...] = (),
              invalidation_acks: Tuple[int, ...] = ()) -> FetchResult:
        if not self.invalid_sets.is_active(client_id):
            raise ThorError(f"no session for {client_id}")
        self.directory.note_discard(client_id, discarded_pages)
        self.invalid_sets.acknowledge(client_id, invalidation_acks)
        page = self.current_page(pagenum)
        self.directory.note_fetch(client_id, pagenum)
        invalidations = tuple(sorted(self.invalid_sets.get(client_id)))
        return FetchResult(page.encode(), invalidations)

    # -- commit -----------------------------------------------------------------------

    def commit(self, client_id: str, timestamp: int,
               reads: FrozenSet[int], writes: Dict[int, bytes],
               discarded_pages: Tuple[int, ...] = (),
               invalidation_acks: Tuple[int, ...] = ()) -> CommitResult:
        if not self.invalid_sets.is_active(client_id):
            raise ThorError(f"no session for {client_id}")
        self.directory.note_discard(client_id, discarded_pages)
        self.invalid_sets.acknowledge(client_id, invalidation_acks)
        write_set = frozenset(writes)
        ok = self.vq.validate(timestamp, frozenset(reads), write_set,
                              frozenset(self.invalid_sets.get(client_id)))
        if not ok:
            self.aborts += 1
            return CommitResult(False, tuple(sorted(
                self.invalid_sets.get(client_id))))
        self.vq.insert(timestamp, frozenset(reads), write_set)
        for oref, value in writes.items():
            self.mob.insert(oref, value)
        self._invalidate_cached_copies(client_id, writes)
        if self.mob.needs_flush:
            self._flush_mob()
        self.commits += 1
        return CommitResult(True, tuple(sorted(
            self.invalid_sets.get(client_id))))

    def _invalidate_cached_copies(self, writer: str,
                                  writes: Dict[int, bytes]) -> None:
        by_page: Dict[int, List[int]] = {}
        for oref in writes:
            by_page.setdefault(oref_pagenum(oref), []).append(oref)
        for pagenum, orefs in by_page.items():
            for client in self.directory.clients_caching(pagenum):
                if client != writer and self.invalid_sets.is_active(client):
                    self.invalid_sets.add(client, orefs)

    def _flush_mob(self) -> None:
        """Install the oldest MOB entries to their disk pages (the lazy
        background flusher; batch size is per-replica jittered)."""
        for pagenum, mods in self.mob.take_flush_batch():
            page = self.cache.get(pagenum)
            if page is None:
                page = self.disk.read(pagenum)
            page = page.copy()
            page.objects.update(mods)
            self.disk.write(page)
            self.cache.put(page)

    # -- bulk loading & state conversion internals -----------------------------------------

    def load_page(self, page: Page) -> None:
        """Populate the database (bulk load, bypassing transactions)."""
        self.disk.write(page)
        self.cache.drop(page.pagenum)

    def install_page_value(self, page: Page) -> None:
        """Internal API for put_objs: make ``page`` the current value —
        drop pending MOB entries and write through."""
        self.mob.discard_page(page.pagenum)
        self.disk.write(page)
        self.cache.put(page.copy())
