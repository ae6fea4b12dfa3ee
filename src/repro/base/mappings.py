"""Reusable abstract↔concrete state mappings (paper §6, future work).

The paper closes by suggesting "a library of mappings between abstract
and concrete states for common data structures would further simplify
our technique."  The two patterns both examples needed are provided
here, extracted so new conformance wrappers can reuse them:

- :class:`SlotAllocator` — deterministic lowest-free-index allocation
  over a fixed-size abstract array with per-entry generation numbers
  (the oid discipline of the file service's conformance rep);
- :class:`KeyedArrayMapping` — maps arbitrary service-level keys (path
  names, primary keys, client ids) to abstract array slots, with the
  reverse map, persistence for the shutdown/restart upcalls, and
  generation-checked lookup (BASE-SQL's rows, BASE-HTTP's resources,
  BASE-Thor's client table).
"""

from __future__ import annotations

import heapq
from typing import Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

from repro.encoding.canonical import canonical, decanonical

K = TypeVar("K", bound=Hashable)


class SlotAllocator:
    """Deterministic allocation of abstract-array slots.

    Allocation always returns the lowest free index; assignment bumps the
    slot's generation, so stale references (oids) are detectable.  All
    correct replicas performing the same operation sequence allocate
    identically — the property state-machine replication needs.
    """

    def __init__(self, size: int, reserved: int = 0):
        if reserved > size:
            raise ValueError("more reserved slots than the array holds")
        self.size = size
        self.reserved = reserved
        # Every slot at or above the watermark ``_fresh`` is free unless
        # ``_used`` says otherwise, and none of them is queued.  Below it,
        # a lazy heap holds the released slots: a slot used since it was
        # queued is skipped when popped.  ``_queued`` marks the slots it
        # holds, so none is queued twice and the heap holds at most the
        # slots released below the watermark.
        self._fresh = reserved
        self._free: List[int] = []
        self._queued = bytearray(size)
        self._used: Dict[int, int] = {i: 0 for i in range(reserved)}
        #: Per-slot generation; callers on a hot path may index it.
        self.generations: List[int] = [0] * size

    _PENDING = -1

    def allocate(self) -> int:
        """Reserve the lowest free slot (generation bumps on `commit`)."""
        while self._free:
            index = heapq.heappop(self._free)
            self._queued[index] = 0
            if index not in self._used:
                self._used[index] = self._PENDING
                return index
        while self._fresh < self.size:
            index = self._fresh
            self._fresh += 1
            if index not in self._used:
                self._used[index] = self._PENDING
                return index
        raise IndexError("abstract array exhausted")

    def _queue(self, index: int) -> None:
        if index < self._fresh and not self._queued[index]:
            self._queued[index] = 1
            heapq.heappush(self._free, index)

    def commit(self, index: int) -> int:
        """Finalize an allocation: bump and return the new generation."""
        self.generations[index] += 1
        self._used[index] = self.generations[index]
        return self.generations[index]

    def release(self, index: int) -> None:
        """Free a slot (its generation survives for staleness checks)."""
        if index < self.reserved:
            raise ValueError(f"slot {index} is reserved")
        if self._used.pop(index, None) is not None:
            self._queue(index)

    def rollback(self, index: int) -> None:
        """Undo an `allocate` that was never committed."""
        if self._used.get(index) == self._PENDING and index >= self.reserved:
            del self._used[index]
            self._queue(index)

    def generation(self, index: int) -> int:
        return self.generations[index]

    def set_generation(self, index: int, gen: int, used: bool) -> None:
        """Install externally-determined state (put_objs / restart).
        A reserved slot stays used whatever ``used`` says."""
        self.generations[index] = gen
        if used:
            self._used[index] = gen
        elif index >= self.reserved:
            self._used.pop(index, None)
            self._queue(index)

    def is_used(self, index: int) -> bool:
        return index in self._used


class KeyedArrayMapping(Generic[K]):
    """Service keys ↔ abstract array slots, built on :class:`SlotAllocator`.

    Typical wrapper usage::

        mapping = KeyedArrayMapping(size=4096, reserved=1)  # 0 = catalog
        index, gen = mapping.assign(("accounts", pk))
        ...
        index = mapping.index_of(("accounts", pk))
        mapping.release(("accounts", pk))

    ``save()``/``load()`` round-trip the mapping through canonical bytes
    for the shutdown/restart upcalls.
    """

    def __init__(self, size: int, reserved: int = 0):
        self.allocator = SlotAllocator(size, reserved)
        self._key_to_index: Dict[K, int] = {}
        self._index_to_key: Dict[int, K] = {}

    def __len__(self) -> int:
        return len(self._key_to_index)

    def __contains__(self, key: K) -> bool:
        return key in self._key_to_index

    def assign(self, key: K) -> Tuple[int, int]:
        """Bind ``key`` to the lowest free slot; returns (index, gen)."""
        if key in self._key_to_index:
            raise KeyError(f"{key!r} already mapped")
        index = self.reserve()
        return index, self.bind(key, index)

    def reserve(self) -> int:
        """Pick the slot a new key will get, without committing — so the
        wrapper can call the library's ``modify`` upcall (which must see
        the pre-mutation value) before the generation bumps."""
        return self.allocator.allocate()

    def bind(self, key: K, index: int) -> int:
        """Complete a :meth:`reserve`; returns the new generation."""
        if key in self._key_to_index:
            raise KeyError(f"{key!r} already mapped")
        gen = self.allocator.commit(index)
        self._link(key, index)
        return gen

    def rollback(self, index: int) -> None:
        """Undo a :meth:`reserve` whose operation failed."""
        self.allocator.rollback(index)

    def release(self, key: K) -> int:
        """Unbind ``key``; returns the freed index."""
        index = self._unlink(key)
        self.allocator.release(index)
        return index

    # Every change to the two dicts goes through this pair, so a subclass
    # can keep an index over the live keys (BASE-SQL's per-table key
    # types) that bind, release, install and load all maintain.

    def _link(self, key: K, index: int) -> None:
        self._key_to_index[key] = index
        self._index_to_key[index] = key

    def _unlink(self, key: K) -> int:
        index = self._key_to_index.pop(key)
        del self._index_to_key[index]
        return index

    def index_of(self, key: K) -> Optional[int]:
        return self._key_to_index.get(key)

    def key_of(self, index: int) -> Optional[K]:
        return self._index_to_key.get(index)

    def generation(self, index: int) -> int:
        return self.allocator.generation(index)

    def items(self) -> Iterator[Tuple[K, int]]:
        return iter(sorted(self._key_to_index.items(),
                           key=lambda kv: kv[1]))

    def install(self, key: Optional[K], index: int, gen: int) -> None:
        """put_objs-side update: make ``index`` hold ``key`` at ``gen``
        (or free the slot when ``key`` is None)."""
        old_key = self._index_to_key.get(index)
        if old_key is not None:
            self._unlink(old_key)
        if key is None:
            self.allocator.set_generation(index, gen, used=False)
            return
        if key in self._key_to_index:   # bound to another slot: move it
            existing = self._unlink(key)
            self.allocator.set_generation(
                existing, self.allocator.generation(existing), used=False)
        self.allocator.set_generation(index, gen, used=True)
        self._link(key, index)

    # -- persistence (shutdown/restart upcalls) ------------------------------

    def save(self) -> bytes:
        entries = tuple((canonical(key), index,
                         self.allocator.generation(index))
                        for key, index in sorted(self._key_to_index.items(),
                                                 key=lambda kv: kv[1]))
        free_gens = tuple((i, self.allocator.generation(i))
                          for i in range(self.allocator.size)
                          if not self.allocator.is_used(i))
        return canonical((self.allocator.size, self.allocator.reserved,
                          entries, free_gens))

    @classmethod
    def load(cls, blob: bytes) -> "KeyedArrayMapping":
        size, reserved, entries, free_gens = decanonical(blob)
        mapping = cls(size, reserved)
        for key_blob, index, gen in entries:
            mapping.install(decanonical(key_blob), index, gen)
        for index, gen in free_gens:
            mapping.allocator.set_generation(index, gen,
                                             used=index < reserved)
        return mapping
