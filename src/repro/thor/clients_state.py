"""Per-client server state: invalid sets and the cached-pages directory."""

from __future__ import annotations

from typing import Dict, Optional, Set


class InvalidSets:
    """client_id -> orefs with stale copies in that client's cache.

    Orefs enter a set when a transaction commits modifications to objects
    the client caches, and leave when the client acknowledges the
    invalidation (piggybacked on its next fetch/commit)."""

    def __init__(self) -> None:
        self._sets: Dict[str, Set[int]] = {}

    def start_client(self, client_id: str) -> None:
        self._sets.setdefault(client_id, set())

    def end_client(self, client_id: str) -> None:
        self._sets.pop(client_id, None)

    def is_active(self, client_id: str) -> bool:
        return client_id in self._sets

    def add(self, client_id: str, orefs) -> None:
        self._sets[client_id].update(orefs)

    def acknowledge(self, client_id: str, orefs) -> None:
        target = self._sets.get(client_id)
        if target is not None:
            target.difference_update(orefs)

    def get(self, client_id: str) -> Set[int]:
        return self._sets.get(client_id, set())

    def replace(self, client_id: str, orefs: Set[int]) -> None:
        """Internal API for the state-conversion functions."""
        self._sets[client_id] = set(orefs)


class CachedPagesDirectory:
    """pagenum -> clients that *may* cache copies of the page."""

    def __init__(self) -> None:
        self._by_page: Dict[int, Set[str]] = {}

    def note_fetch(self, client_id: str, pagenum: int) -> None:
        self._by_page.setdefault(pagenum, set()).add(client_id)

    def note_discard(self, client_id: str, pagenums) -> None:
        for pagenum in pagenums:
            clients = self._by_page.get(pagenum)
            if clients is not None:
                clients.discard(client_id)
                if not clients:
                    del self._by_page[pagenum]

    def drop_client(self, client_id: str) -> None:
        for pagenum in list(self._by_page):
            self.note_discard(client_id, [pagenum])

    def clients_caching(self, pagenum: int) -> Set[str]:
        return self._by_page.get(pagenum, set())

    def replace(self, pagenum: int, clients: Set[str]) -> None:
        """Internal API for the state-conversion functions."""
        if clients:
            self._by_page[pagenum] = set(clients)
        else:
            self._by_page.pop(pagenum, None)
