"""Hierarchical state partition tree (Castro & Liskov 2000, §state transfer).

The abstract state is a fixed-size array of objects.  The tree commits to
it hierarchically: leaves hold per-object digests plus the sequence number
of the checkpoint at which each object was last modified (``lm``); internal
nodes digest their children.  A recovering or out-of-date replica walks
the tree top-down, comparing digests, and fetches only the leaves that are
corrupt or out-of-date — ``lm`` lets it skip hashing partitions that
cannot have changed.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.crypto.digest import digest_many

EMPTY_LEAF_DIGEST = b"\x00" * 32


def tree_depth(size: int, branching: int) -> int:
    """Number of internal levels above the leaves (root is level 0)."""
    if size <= 1:
        return 1
    depth = 0
    span = 1
    while span < size:
        span *= branching
        depth += 1
    return depth


class TreeSnapshot:
    """Immutable digests/lm of a :class:`PartitionTree` at a checkpoint.

    Level 0 is the root (one node); the last level is the leaves.  Lists
    share the underlying ``bytes`` objects with the live tree, so taking a
    snapshot is O(nodes) pointer copies.
    """

    __slots__ = ("digests", "lms")

    def __init__(self, digests: List[List[bytes]], lms: List[List[int]]):
        self.digests = digests
        self.lms = lms

    @property
    def root_digest(self) -> bytes:
        return self.digests[0][0]

    def children_info(self, level: int, index: int,
                      branching: int) -> Optional[Tuple[Tuple[bytes, int], ...]]:
        """(digest, lm) of the children of node (level, index), or None if
        the node does not exist."""
        child_level = level + 1
        if child_level >= len(self.digests):
            return None
        row = self.digests[child_level]
        lm_row = self.lms[child_level]
        start = index * branching
        if start >= len(row):
            return None
        end = min(start + branching, len(row))
        return tuple((row[i], lm_row[i]) for i in range(start, end))


class PartitionTree:
    """Mutable digest tree over a fixed-size abstract-object array.

    ``set_leaf`` marks dirty paths; internal digests are recomputed lazily
    by :meth:`refresh` (called before reading the root or snapshotting).
    """

    def __init__(self, size: int, branching: int = 64):
        if size < 1:
            raise ValueError("array size must be >= 1")
        if branching < 2:
            raise ValueError("branching must be >= 2")
        self.size = size
        self.branching = branching
        self.depth = tree_depth(size, branching)
        # Row sizes from leaves upward.
        sizes = [size]
        while sizes[-1] > 1:
            sizes.append((sizes[-1] + branching - 1) // branching)
        sizes.reverse()  # sizes[0] == 1 (root)
        if len(sizes) == 1:       # single-object array: root == leaf row
            sizes = [1, 1]
        self._digests: List[List[bytes]] = [
            [EMPTY_LEAF_DIGEST] * n for n in sizes]
        self._lms: List[List[int]] = [[0] * n for n in sizes]
        self._dirty: set = set(range(size))
        self.refresh()

    @property
    def leaf_level(self) -> int:
        return len(self._digests) - 1

    # -- updates ------------------------------------------------------------

    def set_leaf(self, index: int, leaf_digest: bytes, lm: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"leaf {index} out of range 0..{self.size - 1}")
        leaves = self._digests[-1]
        if leaves[index] == leaf_digest and self._lms[-1][index] == lm:
            return
        leaves[index] = leaf_digest
        self._lms[-1][index] = lm
        self._dirty.add(index)

    def leaf_digest(self, index: int) -> bytes:
        return self._digests[-1][index]

    def leaf_lm(self, index: int) -> int:
        return self._lms[-1][index]

    def refresh(self) -> None:
        """Propagate dirty leaves up to the root."""
        if not self._dirty:
            return
        dirty_parents = {i // self.branching for i in self._dirty}
        self._dirty.clear()
        for level in range(len(self._digests) - 2, -1, -1):
            child_digests = self._digests[level + 1]
            child_lms = self._lms[level + 1]
            next_dirty = set()
            # Sorted: interior digests land in index order on every
            # replica, keeping refresh cost charging and any future
            # tracing of this path independent of set history.
            for index in sorted(dirty_parents):
                start = index * self.branching
                end = min(start + self.branching, len(child_digests))
                self._digests[level][index] = digest_many(
                    child_digests[i] + struct.pack(">q", child_lms[i])
                    for i in range(start, end))
                self._lms[level][index] = max(child_lms[start:end])
                next_dirty.add(index // self.branching)
            dirty_parents = next_dirty

    # -- reads ----------------------------------------------------------------

    @property
    def root_digest(self) -> bytes:
        self.refresh()
        return self._digests[0][0]

    def snapshot(self) -> TreeSnapshot:
        """Cheap immutable copy of the current digests (pointer copies)."""
        self.refresh()
        return TreeSnapshot([row[:] for row in self._digests],
                            [row[:] for row in self._lms])

    # -- verification helpers ---------------------------------------------------

    @staticmethod
    def combine(children: Sequence[Tuple[bytes, int]]) -> bytes:
        """Digest of an internal node from its children's (digest, lm)."""
        return digest_many(d + struct.pack(">q", lm) for d, lm in children)