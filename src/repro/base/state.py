"""Abstract-state manager: copy-on-write checkpoints over the upcalls.

Implements the library side of the BASE methodology (paper §2.3):

- the abstract state is a fixed-size array of variable-size objects,
  materialized only on demand through ``get_obj``;
- ``modify(i)`` saves a pre-image of object ``i`` the first time it is
  modified after a checkpoint, so checkpoints are incremental;
- checkpoints retain a partition-tree snapshot plus the pre-image deltas,
  letting the replica serve state transfer at any retained checkpoint;
- ``lm`` (last-modified) follows the paper: the sequence number of the
  checkpoint at which the object's modification was incorporated.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.bft.messages import Request
from repro.bft.parttree import PartitionTree, TreeSnapshot
from repro.bft.statemachine import StateManager
from repro.crypto.digest import digest
from repro.base.upcalls import Upcalls


class _CheckpointRecord:
    """State needed to serve one retained checkpoint.

    ``delta`` holds, for each object modified *after* this checkpoint and
    before the next retained one, its (value, lm) *as of this checkpoint*
    — the copy-on-write pre-images.
    """

    __slots__ = ("seq", "snapshot", "delta")

    def __init__(self, seq: int, snapshot: TreeSnapshot):
        self.seq = seq
        self.snapshot = snapshot
        self.delta: Dict[int, Tuple[bytes, int]] = {}


class AbstractStateManager(StateManager):
    """Binds a conformance wrapper (:class:`Upcalls`) to the BFT replica."""

    def __init__(self, upcalls: Upcalls, branching: int = 64,
                 per_object_check_cost: float = 0.0,
                 checkpoint_cost: float = 0.0):
        self.upcalls = upcalls
        self.size = upcalls.num_objects
        self._tree = PartitionTree(self.size, branching)
        # _dirty: modified since the last checkpoint (determines which lm
        # values advance at the next checkpoint — must be identical across
        # replicas).  _stale: subset whose live-tree digest has not been
        # recomputed yet (purely local bookkeeping).  _cold: marked by
        # mark_all_dirty (the recovery check pass) — re-deriving those
        # reads cold concrete state, which is charged at the expensive
        # rate and to the *background* hook (the paper's recovery checks
        # run while waiting for fetch replies, off the protocol path).
        self._dirty: set = set()
        self._stale: set = set()
        self._cold: set = set()
        # Pre-images of objects modified since the latest checkpoint:
        # index -> (value, lm) as of the latest checkpoint.
        self._cow: Dict[int, Tuple[bytes, int]] = {}
        self._records: "OrderedDict[int, _CheckpointRecord]" = OrderedDict()
        self.last_checkpoint_seq = 0
        self.per_object_check_cost = per_object_check_cost  # cold, per KB
        self.checkpoint_cost = checkpoint_cost              # hot, per KB
        #: ``charge(seconds)`` — consume simulated CPU/disk time: this
        #: manager's checkpoint work and its wrapper's ``library.charge``
        #: alike.  ``build_base_cluster`` binds the replica's ``charge``.
        self.charge: Callable[[float], None] = lambda seconds: None
        self.background_hook: Callable[[float], None] = \
            lambda seconds: self.charge(seconds)
        upcalls.library = self  # its handle: modify, charge (Fig. 2)
        # Initial leaf digests reflect the initial abstract state.  Most
        # initial objects are equal (free slots): digest each distinct
        # value once, and let equal leaves share the digest.
        digests: Dict[bytes, bytes] = {}
        for i in range(self.size):
            value = upcalls.get_obj(i)
            leaf = digests.get(value)
            if leaf is None:
                leaf = digests[value] = digest(value)
            self._tree.set_leaf(i, leaf, 0)

    def _charge_check(self, index: int, value: bytes) -> None:
        """Cost of one get_obj + digest, proportional to object size."""
        kb = max(len(value), 64) / 1024.0
        if index in self._cold:
            self.background_hook(self.per_object_check_cost * kb)
        else:
            self.charge(self.checkpoint_cost * kb)

    # -- copy-on-write (the `modify` library call) -----------------------------

    def modify(self, index: int) -> None:
        """Record that abstract object ``index`` is about to change.

        First modification after a checkpoint saves the pre-image, so the
        checkpoint value can still be served/transferred later.
        """
        if index in self._cow:
            return
        if not 0 <= index < self.size:
            raise IndexError(f"abstract object {index} out of range")
        value = self.upcalls.get_obj(index)
        self._cow[index] = (value, self._tree.leaf_lm(index))
        self._dirty.add(index)
        self._stale.add(index)

    # -- execution --------------------------------------------------------------

    def execute(self, op: bytes, client_id: str, request_id: int, seq: int,
                nondet: bytes, read_only: bool = False) -> bytes:
        return self.upcalls.execute(op, client_id, nondet,
                                    read_only=read_only)

    def propose_nondet(self, requests: Sequence[Request], seq: int) -> bytes:
        return self.upcalls.propose_value([r.op for r in requests], seq)

    def check_nondet(self, requests: Sequence[Request], seq: int,
                     nondet: bytes) -> bool:
        return self.upcalls.check_value([r.op for r in requests], seq, nondet)

    # -- checkpoints -----------------------------------------------------------------

    def take_checkpoint(self, seq: int) -> bytes:
        # Fold the pre-images into the *previous* checkpoint's record: they
        # are the values objects had at that checkpoint.
        prev = self._records.get(self.last_checkpoint_seq)
        if prev is not None:
            for index, entry in self._cow.items():
                prev.delta.setdefault(index, entry)
        # Recompute digests of modified objects (paper: the library calls
        # get_obj for objects saved by the incremental mechanism) and
        # advance their lm to this checkpoint's sequence number.
        # Sorted: the per-object costs fold into the replica's simulated
        # time with float addition, which is not associative — iterating
        # in hash order would let set history skew the sum's last ULPs.
        for index in sorted(self._dirty):
            value = self.upcalls.get_obj(index)
            self._charge_check(index, value)
            self._tree.set_leaf(index, digest(value), seq)
        self._dirty.clear()
        self._stale.clear()
        self._cold.clear()
        self._cow = {}
        record = _CheckpointRecord(seq, self._tree.snapshot())
        self._records[seq] = record
        self.last_checkpoint_seq = seq
        return record.snapshot.root_digest

    def discard_checkpoints_below(self, seq: int) -> None:
        for old in [s for s in self._records if s < seq]:
            del self._records[old]

    def checkpoint_root(self, seq: int) -> Optional[bytes]:
        record = self._records.get(seq)
        return record.snapshot.root_digest if record else None

    def restore_checkpoint(self, seq: int) -> bool:
        record = self._records.get(seq)
        if record is None:
            return False
        # Objects touched since checkpoint ``seq``: anything with a
        # pre-image in a retained record at or above it, plus the live
        # copy-on-write set.  ``object_at`` resolves each one's value as
        # of ``seq`` through the same pre-image chain state transfer
        # serves from — gather before mutating anything.
        indices = set(self._cow)
        for s, rec in self._records.items():
            if s >= seq:
                indices.update(rec.delta)
        values = {i: self.object_at(seq, i) for i in sorted(indices)}
        if values:
            self.upcalls.put_objs(values)
        leaf_digests = record.snapshot.digests[-1]
        leaf_lms = record.snapshot.lms[-1]
        for i in sorted(indices):
            self._tree.set_leaf(i, leaf_digests[i], leaf_lms[i])
        for s in [s for s in self._records if s > seq]:
            del self._records[s]
        self._dirty.clear()
        self._stale.clear()
        self._cold.clear()
        self._cow = {}
        self.last_checkpoint_seq = seq
        return True

    # -- serving state transfer ----------------------------------------------------------

    def meta_children(self, seq: int, level: int, index: int):
        record = self._records.get(seq)
        if record is None:
            return None
        return record.snapshot.children_info(level, index,
                                             self._tree.branching)

    def object_at(self, seq: int, index: int) -> Optional[bytes]:
        if seq not in self._records or not 0 <= index < self.size:
            return None
        # Chain lookup: the first retained checkpoint >= seq that saved a
        # pre-image for this object has its value at `seq`; otherwise the
        # object is unmodified since, and the current value is the answer.
        for s, record in self._records.items():
            if s >= seq and index in record.delta:
                return record.delta[index][0]
        if index in self._cow:
            return self._cow[index][0]
        return self.upcalls.get_obj(index)

    # -- fetching side -----------------------------------------------------------------------

    def local_leaf_info(self, index: int) -> Tuple[bytes, int]:
        if index in self._stale:
            value = self.upcalls.get_obj(index)
            self._charge_check(index, value)
            self._tree.set_leaf(index, digest(value), self._tree.leaf_lm(index))
            self._stale.discard(index)
            self._cold.discard(index)
        return self._tree.leaf_digest(index), self._tree.leaf_lm(index)

    def refresh_dirty(self) -> None:
        """Recompute stale leaf digests (cold entries charge background)."""
        for index in sorted(self._stale):
            value = self.upcalls.get_obj(index)
            self._charge_check(index, value)
            self._tree.set_leaf(index, digest(value),
                                self._tree.leaf_lm(index))
        self._stale.clear()
        self._cold.clear()

    def mark_all_dirty(self) -> None:
        # Recovery's integrity check: re-derive every digest from the
        # concrete state.  Does NOT touch _dirty — lm advancement is part
        # of the replicated state and must stay deterministic.
        self._stale = set(range(self.size))
        self._cold = set(range(self.size))

    def apply_fetched(self, seq: int, root_digest: bytes,
                      objects: Dict[int, Tuple[bytes, int]]) -> bool:
        if objects:
            self.upcalls.put_objs({i: value
                                   for i, (value, _) in objects.items()})
        for index, (value, lm) in objects.items():
            self._tree.set_leaf(index, digest(value), lm)
        if self._tree.root_digest != root_digest:
            return False
        # Current state now *is* checkpoint `seq`: reset COW bookkeeping.
        self._dirty.clear()
        self._stale.clear()
        self._cold.clear()
        self._cow = {}
        self._records.clear()
        self._records[seq] = _CheckpointRecord(seq, self._tree.snapshot())
        self.last_checkpoint_seq = seq
        return True

    @property
    def tree(self) -> PartitionTree:
        return self._tree

    # -- recovery ---------------------------------------------------------------------------------

    def shutdown(self) -> float:
        return self.upcalls.shutdown()

    def restart(self) -> float:
        return self.upcalls.restart()
