"""Per-sequence-number protocol log with watermark-based garbage collection."""

from __future__ import annotations

from typing import Dict, Optional

from repro.bft.messages import Commit, PrePrepare, Prepare


class SeqSlot:
    """Protocol state for one sequence number in one view regime.

    Tracks the accepted pre-prepare and the prepare/commit certificates
    being assembled for it.
    """

    __slots__ = ("seq", "pre_prepare", "prepares", "commits",
                 "prepared", "committed", "executed", "tentative",
                 "prepared_cert", "phase_marks")

    def __init__(self, seq: int):
        self.seq = seq
        self.pre_prepare: Optional[PrePrepare] = None
        self.prepares: Dict[str, Prepare] = {}
        self.commits: Dict[str, Commit] = {}
        self.prepared = False
        self.committed = False
        self.executed = False
        # True while the slot has been executed on the fast path (at
        # prepared time) but its commit certificate is still outstanding.
        # Cleared when the commit certificate completes or the execution
        # is rolled back by a view change.
        self.tentative = False
        # Observability: simulated timestamps of this slot's phase
        # transitions ("pre_prepare", "prepared", "committed"), feeding
        # the per-phase latency histograms.  Reset whenever the slot's
        # certificates are reset (view change, stale-view replacement).
        self.phase_marks: Dict[str, float] = {}
        # The highest-view prepared certificate ever assembled for this
        # sequence number: (view, pre_prepare).  Unlike the working flags
        # above, this survives view changes — PBFT's P-set is built from
        # it, so a batch that prepared in view v but was interrupted
        # mid-re-prepare in v+1 is still carried into v+2.
        self.prepared_cert: Optional[tuple] = None

    def void_votes(self) -> None:
        """Forget the certificates being assembled: what was collected
        for another view's pre-prepare proves nothing about this one."""
        self.prepares = {}
        self.commits = {}
        self.prepared = False
        self.committed = False

    def matching_prepares(self) -> int:
        """Prepares matching the accepted pre-prepare's digest."""
        return self._matching(self.prepares)

    def matching_commits(self) -> int:
        return self._matching(self.commits)

    def _matching(self, votes) -> int:
        pre_prepare = self.pre_prepare
        if pre_prepare is None:
            return 0
        want = pre_prepare.sealed_digest or pre_prepare.digest()
        count = 0
        for vote in votes.values():
            if vote.batch_digest == want:
                count += 1
        return count


class MessageLog:
    """Slots indexed by sequence number, bounded by the water marks."""

    def __init__(self) -> None:
        self._slots: Dict[int, SeqSlot] = {}

    def slot(self, seq: int) -> SeqSlot:
        slot = self._slots.get(seq)
        if slot is None:
            slot = self._slots[seq] = SeqSlot(seq)
        return slot

    def get(self, seq: int) -> Optional[SeqSlot]:
        return self._slots.get(seq)

    def truncate_below(self, seq: int) -> None:
        """Discard slots for sequence numbers <= ``seq`` (now stable)."""
        for s in [s for s in self._slots if s <= seq]:
            del self._slots[s]

    def unexecute_all(self) -> None:
        """Un-mark every retained slot as executed, so the replica
        replays them in order from the checkpoint it rewound to."""
        for slot in self._slots.values():
            slot.executed = False
            slot.tentative = False

    def seqs(self):
        return sorted(self._slots)

    def prepared_above(self, seq: int):
        """Slots holding a prepared certificate (from *any* view) for
        sequence numbers > ``seq``."""
        return [slot for s, slot in sorted(self._slots.items())
                if s > seq and slot.prepared_cert is not None]

    def __len__(self) -> int:
        return len(self._slots)
