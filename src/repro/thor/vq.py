"""Validation queue for optimistic concurrency control (Adya et al. 1995).

The VQ holds one entry per recently committed transaction: its timestamp
and the orefs it read and wrote.  A committing transaction must not
conflict with any committed transaction bearing a *later* timestamp.  Per
the abstract spec, entries live in a fixed-size array allocated at the
lowest free index; when full, the entry with the lowest timestamp is
discarded and its timestamp becomes the abort ``threshold`` — anything
older can no longer be validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

COMMITTED = 1


@dataclass
class VqEntry:
    timestamp: int                 # microseconds; 0 = free
    reads: FrozenSet[int]
    writes: FrozenSet[int]
    status: int = COMMITTED

    @property
    def is_free(self) -> bool:
        return self.timestamp == 0


class ValidationQueue:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: List[Optional[VqEntry]] = [None] * capacity
        self.threshold = 0  # timestamps <= threshold cannot validate

    def validate(self, timestamp: int, reads: FrozenSet[int],
                 writes: FrozenSet[int], invalid: FrozenSet[int]) -> bool:
        """OCC check: no accessed object invalid; no write-read or
        read-write conflict with a later-timestamped committed txn."""
        if timestamp <= self.threshold:
            return False
        accessed = reads | writes
        if accessed & invalid:
            return False
        for entry in self.entries:
            if entry is None or entry.is_free:
                continue
            if entry.timestamp <= timestamp:
                continue
            if writes & entry.reads or reads & entry.writes \
                    or writes & entry.writes:
                return False
        return True

    def insert(self, timestamp: int, reads: FrozenSet[int],
               writes: FrozenSet[int]) -> int:
        """Record a committed transaction; returns the entry index.

        Lowest free index; evicts the lowest-timestamp entry when full
        (raising the abort threshold)."""
        for index, entry in enumerate(self.entries):
            if entry is None or entry.is_free:
                self.entries[index] = VqEntry(timestamp, reads, writes)
                return index
        victim = min(range(self.capacity),
                     key=lambda i: self.entries[i].timestamp)
        self.threshold = max(self.threshold,
                             self.entries[victim].timestamp)
        self.entries[victim] = VqEntry(timestamp, reads, writes)
        return victim

    def find_by_timestamp(self, timestamp: int) -> Optional[VqEntry]:
        for entry in self.entries:
            if entry is not None and entry.timestamp == timestamp:
                return entry
        return None

    def set_entry(self, index: int, entry: Optional[VqEntry]) -> None:
        """Internal API used by the state-conversion functions."""
        self.entries[index] = entry

    def occupancy(self) -> int:
        return sum(1 for e in self.entries if e is not None and not e.is_free)
