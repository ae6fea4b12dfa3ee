"""View changes: replacing a faulty primary.

When a backup's timer expires before a request executes (or it sees
direct evidence of primary misbehaviour), it stops accepting messages in
the current view and multicasts a signed VIEW-CHANGE carrying its stable
checkpoint proof and the prepared certificates above it.  The primary of
the new view collects 2f+1 view-changes and multicasts NEW-VIEW, which
re-proposes every batch that may have committed (highest-view prepared
certificate per sequence number; null requests fill gaps).  Backups
recompute the re-proposals from the view-changes and accept only a
matching NEW-VIEW, so a faulty new primary cannot rewrite history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bft.messages import (
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    Request,
    ViewChange,
)


class ViewChangeManager:
    """Per-replica view-change protocol state."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.active = False
        self.target_view = 0
        # view -> replica_id -> ViewChange
        self.received: Dict[int, Dict[str, ViewChange]] = {}
        #: Latest NEW-VIEW sent or accepted; forwarded in CERT replies so
        #: recovering replicas can catch up to the current view.
        self.last_new_view: Optional[NewView] = None
        #: sender -> view of the last NEW-VIEW resent to it.
        self._answered: Dict[str, int] = {}
        self._nv_timer = replica.make_timer(
            replica.config.view_change_timeout, self._on_new_view_timeout)
        # When this replica left normal operation (first VIEW-CHANGE sent
        # for the current outage), for the phase.view_change histogram.
        self._started_at = 0.0

    # -- initiating ----------------------------------------------------------

    def start(self, new_view: int) -> None:
        """Move to ``new_view``: broadcast our VIEW-CHANGE and wait."""
        r = self.replica
        if new_view <= r.view:
            return
        if self.active and new_view <= self.target_view:
            return
        if not self.active:
            self._started_at = r.now
        self.active = True
        self.target_view = new_view
        r.vc_timer.stop()
        r.trace("view_change_started", new_view)

        # Report from the base of the window this replica votes in: while
        # fetching, the certified checkpoint it fetches, so every slot it
        # prepared or committed above it is in the VIEW-CHANGE.
        low = r._low_water()
        cert = r.stable_cert if low == r.last_stable else r.transfer.cert
        prepared = tuple(
            PreparedProof(slot.prepared_cert[0], slot.seq,
                          slot.prepared_cert[1].batch_digest(),
                          slot.prepared_cert[1])
            for slot in r.log.prepared_above(low))
        vc = ViewChange(new_view, low, cert, prepared, r.node_id)
        r.sign_msg(vc)
        r.multicast(r.other_replicas, vc)
        self.received.setdefault(new_view, {})[r.node_id] = vc
        self._arm()
        self._maybe_assemble(new_view)

    def _arm(self) -> None:
        """PBFT's timer: below 2f+1 VIEW-CHANGEs for the target view it
        retransmits ours every ``view_change_timeout`` (a cut-off replica
        waits at v+1, it does not climb); from 2f+1 it awaits the
        NEW-VIEW, twice as long per further view (capped)."""
        r = self.replica
        timeout = r.config.view_change_timeout
        if len(self.received[self.target_view]) >= r.config.quorum:
            timeout *= 2 ** min(16, max(0, self.target_view - r.view - 1))
        self._nv_timer.restart(timeout)

    def _on_new_view_timeout(self) -> None:
        r = self.replica
        if not self.active:
            return
        by_replica = self.received[self.target_view]
        if len(by_replica) < r.config.quorum:
            r.multicast(r.other_replicas, by_replica[r.node_id])
            self._arm()
        else:
            r.trace("new_view_timeout", self.target_view)
            self.start(self.target_view + 1)

    # -- receiving view-changes ---------------------------------------------------

    def resend_new_view(self, src: str, view: int) -> None:
        """``src`` asks for ``view``, which we entered: it missed the
        NEW-VIEW, and PBFT resends it.  Once per sender and view, so it is
        no amplifier, and before any signature check (the gate's)."""
        nv = self.last_new_view
        if nv is not None and nv.view >= view \
                and self._answered.get(src, -1) < nv.view:
            self._answered[src] = nv.view
            self.replica.send(src, nv)

    def on_view_change(self, src: str, msg: ViewChange) -> None:
        r = self.replica
        if not self._valid_view_change(msg):
            return
        by_replica = self.received.setdefault(msg.view, {})
        fresh = src not in by_replica
        by_replica[src] = msg
        if (fresh and self.active and msg.view == self.target_view
                and len(by_replica) == r.config.quorum):
            self._arm()
        # Liveness rule: if f+1 replicas want a view above ours, join the
        # smallest such view even if our own timer has not fired.
        if not self.active or msg.view > self.target_view:
            candidates = sorted(v for v, by in self.received.items()
                                if v > (self.target_view if self.active
                                        else r.view)
                                and len(by) >= r.config.weak_quorum)
            if candidates:
                self.start(candidates[0])
        self._maybe_assemble(msg.view)

    def _valid_view_change(self, msg: ViewChange,
                           summarized: bool = False) -> bool:
        """Check the embedded checkpoint proof and prepared certificates:
        pre-prepares, in one sent to us (the gate checked its sender);
        summaries, in one a NEW-VIEW embeds, whose signer is checked here
        as the gate checks a sender: a group member, its signature."""
        r = self.replica
        if summarized and (msg.replica_id not in r.config.replica_ids
                           or not r.verify_sig(msg.replica_id, msg)):
            return False
        if msg.last_stable > 0:
            if not msg.checkpoint_proof:
                return False
            root = msg.checkpoint_proof[0].root_digest
            if not r.valid_checkpoint_cert(msg.last_stable, root,
                                           msg.checkpoint_proof):
                return False
        for proof in msg.prepared:
            pp = proof.pre_prepare
            if (pp is None) != summarized or pp is not None and (
                    pp.seq != proof.seq or pp.view != proof.view
                    or pp.batch_digest() != proof.batch_digest):
                return False
            if proof.seq <= msg.last_stable:
                return False
        return True

    # -- new primary: assembling NEW-VIEW ---------------------------------------------

    def _maybe_assemble(self, view: int) -> None:
        r = self.replica
        if r.config.primary_of(view) != r.node_id:
            return
        by_replica = self.received.get(view, {})
        if len(by_replica) < r.config.quorum:
            return
        if not self.active or self.target_view != view:
            # We are the new primary but have not timed out ourselves yet;
            # join so our own view-change is included.
            self.start(view)
            by_replica = self.received.get(view, {})
            if len(by_replica) < r.config.quorum:
                return
        vcs = tuple(sorted(by_replica.values(),
                           key=lambda m: m.replica_id)[:r.config.quorum])
        if r.node_id not in {m.replica_id for m in vcs}:
            own = by_replica.get(r.node_id)
            if own is None:
                return
            vcs = tuple(sorted(list(vcs)[:-1] + [own],
                               key=lambda m: m.replica_id))
        pre_prepares = self.compute_new_view_pre_prepares(view, vcs)
        nv = NewView(view, tuple(vc.summarized() for vc in vcs),
                     tuple(pre_prepares), r.node_id)
        r.sign_msg(nv)
        r.multicast(r.other_replicas, nv)
        r.trace("new_view_sent", view, len(pre_prepares))
        self.last_new_view = nv
        self._enter_view(view, vcs, pre_prepares)

    @staticmethod
    def _certified(vcs) -> Tuple[int, Dict[int, PreparedProof]]:
        """min-s, the highest stable checkpoint among ``vcs``, and per seq
        above it the prepared certificate with the highest view."""
        min_s = max(vc.last_stable for vc in vcs)
        best: Dict[int, PreparedProof] = {}
        for vc in vcs:
            for proof in vc.prepared:
                if proof.seq <= min_s:
                    continue
                cur = best.get(proof.seq)
                if cur is None or proof.view > cur.view:
                    best[proof.seq] = proof
        return min_s, best

    @classmethod
    def compute_new_view_pre_prepares(cls, view: int, vcs) -> List[PrePrepare]:
        """Deterministically derive the re-proposals from 2f+1 view-changes.

        For each sequence number between the highest stable checkpoint
        (min-s) and the highest prepared request (max-s), re-propose the
        batch from the prepared certificate with the highest view, or a
        null request if no view-change prepared anything there.
        """
        min_s, best = cls._certified(vcs)
        pps = []
        for seq in range(min_s + 1, max(best, default=min_s) + 1):
            proof = best.get(seq)
            if proof is not None:
                src_pp = proof.pre_prepare
                pps.append(PrePrepare(view, seq, src_pp.requests,
                                      src_pp.nondet))
            else:
                pps.append(PrePrepare(view, seq, (Request.null(),), b""))
        return pps

    # -- backups: accepting NEW-VIEW -------------------------------------------------

    def on_new_view(self, src: str, msg: NewView) -> None:
        """Accept a NEW-VIEW for a view above ours, signed by its primary
        (the gate checked both, not the transport source: a peer forwards
        its stored copy in a CERT-REPLY), if its contents certify it."""
        r = self.replica
        if len({vc.replica_id for vc in msg.view_changes}) < r.config.quorum:
            return
        for vc in msg.view_changes:
            if vc.view != msg.view \
                    or not self._valid_view_change(vc, summarized=True):
                return
        if not self._reproposes_certified(msg):
            r.trace("new_view_rejected", msg.view)
            return
        r.trace("new_view_accepted", msg.view)
        self.last_new_view = msg
        self._enter_view(msg.view, msg.view_changes, list(msg.pre_prepares))

    def _reproposes_certified(self, msg: NewView) -> bool:
        """The O set, checked against the summaries: exactly one
        pre-prepare per seq in (min-s, max-s], in order, each the
        certified batch (its request digests and nondet hash to the
        summary's digest) or, where nothing prepared, a null request."""
        min_s, best = self._certified(msg.view_changes)
        pps = msg.pre_prepares
        if [pp.seq for pp in pps] != list(
                range(min_s + 1, max(best, default=min_s) + 1)):
            return False
        for pp in pps:
            proof = best.get(pp.seq)
            if proof is None:
                ok = pp.digest() == PrePrepare(
                    msg.view, pp.seq, (Request.null(),), b"").digest()
            else:
                ok = PrePrepare(proof.view, pp.seq, pp.requests,
                                pp.nondet).digest() == proof.batch_digest
            if pp.view != msg.view or not ok:
                return False
        return True

    # -- entering the new view ------------------------------------------------------

    def _enter_view(self, view: int, vcs, pre_prepares: List[PrePrepare]) -> None:
        r = self.replica
        r.view = view
        if self.active:
            r.tracer.observe_phase("view_change", r.now - self._started_at)
        self.active = False
        self._nv_timer.stop()
        for v in [v for v in self.received if v <= view]:
            del self.received[v]

        min_s = max(vc.last_stable for vc in vcs)
        # Fast-path rollback: executions performed at prepared time are
        # only durable if the new view re-proposes the same batch at the
        # same seq.  Any tentatively executed slot the NEW-VIEW re-orders
        # (different batch), drops (not re-proposed), or subsumes under a
        # stable checkpoint we lack must be undone before the slot resets
        # below overwrite the evidence.
        new_pps = {pp.seq: pp for pp in pre_prepares}
        for seq in r.log.seqs():
            slot = r.log.get(seq)
            if seq <= r.last_stable or not slot.executed \
                    or not slot.tentative:
                continue
            pp = new_pps.get(seq)
            if (pp is None or slot.pre_prepare is None
                    or pp.batch_digest() != slot.pre_prepare.batch_digest()):
                r.trace("tentative_reordered", seq, view)
                r.rollback_to_stable()
                break

        # If others progressed to a stable checkpoint we do not have, fetch.
        if min_s > r.last_stable:
            donor_vc = next(vc for vc in vcs if vc.last_stable == min_s)
            if donor_vc.checkpoint_proof:
                root = donor_vc.checkpoint_proof[0].root_digest
                if min_s > r.last_executed:
                    r.transfer.initiate(min_s, root, donor_vc.checkpoint_proof)

        # Protocol state not carried into the new view is void: discard
        # slots above the checkpoint that the NEW-VIEW does not re-propose
        # (a stale pre-prepare left behind would masquerade as a
        # conflicting proposal when the new primary reuses its seq).
        covered = {pp.seq for pp in pre_prepares}
        for seq in r.log.seqs():
            if seq > max(min_s, r.last_executed) and seq not in covered:
                slot = r.log.slot(seq)
                slot.pre_prepare = None
                slot.void_votes()
                slot.phase_marks = {}

        max_seq = min_s
        for pp in pre_prepares:
            max_seq = max(max_seq, pp.seq)
            if pp.seq <= r.last_stable:
                # A late entrant's stable checkpoint already covers it:
                # no slot under the low-water mark, nothing to prepare.
                continue
            slot = r.log.slot(pp.seq)
            slot.pre_prepare = pp
            slot.void_votes()
            slot.phase_marks = {"pre_prepare": r.now}
            slot.executed = slot.executed and pp.seq <= r.last_executed
            slot.tentative = slot.tentative and slot.executed
            if not r.is_primary:
                prep = Prepare(view, pp.seq, pp.batch_digest(), r.node_id)
                r.authenticate(prep)
                r.multicast(r.other_replicas, prep)
                slot.prepares[r.node_id] = prep
        if r.is_primary:
            r.seq_assigned = max_seq
            # Requests that were in flight but not re-proposed must be
            # ordered afresh in this view.
            r.in_flight.clear()
        for slot_seq in r.log.seqs():
            r._check_prepared(r.log.slot(slot_seq))
        if r.waiting:
            # Relay un-executed requests straight to the new primary so
            # clients do not have to retransmit to make progress.
            if not r.is_primary:
                for req in list(r.waiting.values()):
                    r.send(r.primary_id, req)
            r.vc_timer.restart()
        if r.is_primary:
            for req in list(r.waiting.values()):
                key = (req.client_id, req.request_id)
                if key not in r.pending and key not in r.in_flight:
                    r.pending[key] = req
            r.try_send_pre_prepare()
        r.redeliver_future_msgs()
        r.try_execute()
