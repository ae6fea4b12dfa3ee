"""The BFT replica: three-phase ordering, execution, and checkpointing.

Normal case (Castro & Liskov 1999):

1. the client sends a REQUEST to the primary;
2. the primary assigns a sequence number and multicasts PRE-PREPARE,
   carrying the batch of requests and its nondeterministic value;
3. backups that accept it multicast PREPARE; a batch is *prepared* at a
   replica once it has the pre-prepare and 2f matching prepares;
4. prepared replicas multicast COMMIT; a batch is *committed-local* once
   prepared and backed by 2f+1 matching commits;
5. replicas execute committed batches in sequence order and reply.

Checkpoints are taken every ``checkpoint_interval`` requests; a
checkpoint becomes *stable* with 2f+1 matching CHECKPOINT messages, which
advances the low water mark and garbage-collects the log.

View changes, state transfer, and proactive recovery are delegated to
manager objects (see :mod:`repro.bft.viewchange`,
:mod:`repro.bft.statetransfer`, :mod:`repro.bft.recovery`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.bft.config import BftConfig
from repro.bft.costs import CostModel, ZERO_COSTS
from repro.bft.faults import HONEST, Behavior
from repro.bft.log import MessageLog
from repro.bft.messages import (
    CURRENT,
    LATER,
    MAC,
    NULL_CLIENT,
    PRIMARY,
    SIG,
    CheckpointMsg,
    Commit,
    EdgeRead,
    EdgeReadReply,
    Message,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    verify_auth,
)
from repro.bft.recovery import RecoveryManager
from repro.bft.statemachine import StateManager
from repro.bft.statetransfer import StateTransferManager
from repro.bft.viewchange import ViewChangeManager
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import Authenticator
from repro.crypto.signatures import sign, verify_signature
from repro.encoding.canonical import canonical, decanonical
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.tracing import Tracer

MAX_OUTSTANDING = 1        # pre-prepares in flight per primary
BATCH_WINDOW_MAX = 0.002   # upper bound on the batch hold window
#: Prefix of the result ``_safe_execute`` returns when the service raised.
ERROR_PREFIX = b"__error__:"


class Replica(Node):
    """One member of the replication group."""

    def __init__(self, replica_id: str, network: Network, config: BftConfig,
                 registry: KeyRegistry, state: StateManager, tracer: Tracer,
                 costs: CostModel = ZERO_COSTS):
        super().__init__(replica_id, network)
        self.config = config
        self.registry = registry
        self.state = state
        self.tracer = tracer
        self.costs = costs
        self._behavior: Behavior = HONEST
        registry.enroll(replica_id)
        # Fixed for the life of the group and read on every protocol
        # message, so derived from the config once.
        self.other_replicas: Tuple[str, ...] = tuple(
            r for r in config.replica_ids if r != replica_id)
        self._members = frozenset(config.replica_ids)
        self._index = config.replica_index(replica_id)
        self._quorum = config.quorum
        # The pre-prepare stands in for the primary's prepare, so a
        # batch prepares on 2f matching prepares from the backups.
        self._prepare_votes = 2 * config.f
        self._log_window = config.log_window

        self.view = 0
        self.last_executed = 0
        self.last_stable = 0
        # Highest seq through which execution is known committed (either
        # executed with a commit certificate or covered by a stable
        # checkpoint).  Executions in (last_committed_exec, last_executed]
        # are tentative: performed at prepared time and subject to
        # rollback if a view change re-orders them.
        self.last_committed_exec = 0
        self.seq_assigned = 0            # primary: highest seq proposed
        self.log = MessageLog()
        # Client reply cache: client_id -> (last executed request_id, result).
        # Part of the replicated state — checkpointed and transferred — so
        # all correct replicas de-duplicate retransmissions identically.
        self.client_table: Dict[str, Tuple[int, bytes]] = {}
        # seq -> (table digest, serialized table) for retained checkpoints
        self.table_checkpoints: Dict[int, Tuple[bytes, bytes]] = {}
        # primary's queue of requests awaiting a pre-prepare
        self.pending: "OrderedDict[Tuple[str, int], Request]" = OrderedDict()
        self.in_flight: Dict[Tuple[str, int], int] = {}  # -> seq
        # Observability: when each pending request reached this primary,
        # feeding the phase.request_to_pre_prepare histogram.
        self._request_arrival: Dict[Tuple[str, int], float] = {}
        # Local (non-replicated) record of the seq each client's latest
        # reply executed at, so cached-reply retransmissions can be
        # marked tentative while that execution's commit is outstanding.
        self._reply_seq: Dict[str, int] = {}
        # Adaptive batching (primary): AIMD batch-size target driven by
        # the request inter-arrival EWMA; undersized batches are held for
        # a short window when arrivals suggest more are imminent.
        self._batch_target = 1
        self._arrival_ewma: Optional[float] = None
        self._last_request_at: Optional[float] = None
        self._hold_event = None
        self._hold_forced = False
        # seq -> replica -> CheckpointMsg
        self.checkpoint_msgs: Dict[int, Dict[str, CheckpointMsg]] = {}
        self.stable_cert: Tuple[CheckpointMsg, ...] = ()
        # Requests seen but not yet executed: drives the vc timer, and
        # lets backups relay them to the new primary after a view change
        # (key -> Request).
        self.waiting: Dict[Tuple[str, int], Request] = {}
        # Protocol messages from views ahead of ours (e.g. a new primary's
        # first pre-prepare racing its NEW-VIEW): buffered and redelivered
        # once we enter the view.
        self._future_view_msgs: List[Tuple[str, Message]] = []
        # Highest view each peer has shown us in an authenticated
        # ordering message (at most n-1 ints), and the highest view we
        # have asked the group to prove to us.
        self._peer_views: Dict[str, int] = {}
        self._view_solicited = 0
        # (signer, signed bytes, signature) this replica made or checked,
        # oldest first; emptied when proactive recovery restarts it.
        self.verified_sigs: Dict[Tuple[str, bytes, bytes], None] = {}
        self.busy_until = 0.0

        self.view_changes = ViewChangeManager(self)
        self.transfer = StateTransferManager(self)
        self.recovery = RecoveryManager(self)
        # kind -> (handler, *contract), for every kind a replica receives:
        # its own handle_<kind> or on_<kind> of the manager that runs that
        # part of the protocol.  on_message enforces the contract first.
        self._handlers = {}
        for cls in Message.__subclasses__():
            for owner, name in ((self, "handle_"), (self.view_changes, "on_"),
                                (self.transfer, "on_"), (self.recovery, "on_")):
                handler = getattr(owner, name + cls.kind, None)
                if handler is not None:
                    self._handlers[cls.kind] = (handler, *cls.contract)
        self.vc_timer = self.make_timer(config.view_change_timeout,
                                        self._on_vc_timeout)
        # Retransmission of the latest checkpoint message until it (or a
        # later one) stabilizes — lost CHECKPOINTs must not stall the
        # watermarks forever.
        self._latest_checkpoint_msg: Optional[CheckpointMsg] = None
        self._ckpt_retry_timer = self.make_timer(
            config.view_change_timeout, self._retransmit_checkpoint)
        # Baseline checkpoint 0 so state transfer targets always exist.
        root0 = self.state.take_checkpoint(0)
        self.record_table_checkpoint(0)
        # Every (seq, root) this replica checkpointed, retained past log
        # truncation (bounded): the abstract-state history the edge
        # tier's staleness contract is audited against.
        self.checkpoint_history: List[Tuple[int, bytes]] = [(0, root0)]
        # Version vector served to edge nodes: (stable checkpoint seq,
        # abstract-state root digest, sim time it went stable in µs).
        # Re-minted whenever a checkpoint gains a 2f+1 certificate.
        self.stable_vector: Tuple[int, bytes, int] = (0, root0, 0)

    # -- identity helpers ------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.config.primary_of(self.view) == self.node_id

    @property
    def primary_id(self) -> str:
        return self.config.primary_of(self.view)

    @property
    def committed_frontier(self) -> int:
        """Highest seq whose execution is durable.  A stable checkpoint
        counts even if the executions under it were tentative: stability
        requires 2f+1 replicas to have prepared (and executed) every
        batch below it, which any view-change quorum preserves."""
        return max(self.last_committed_exec, self.last_stable)

    @property
    def behavior(self) -> Behavior:
        return self._behavior

    @behavior.setter
    def behavior(self, value: Behavior) -> None:
        """Attach a (possibly Byzantine) behavior, binding it to this
        replica so behaviors that schedule work (delay, replay) can."""
        if value is not HONEST:
            value.bind(self)
        self._behavior = value

    def send(self, dst, msg):
        """Send with the Byzantine rewrite hook applied.  An honest
        replica has nothing to rewrite and goes straight to the fabric
        (:meth:`Node.send` without the extra frame)."""
        if self._behavior is not HONEST:
            msg = self._behavior.rewrite_outgoing(msg, dst)
            if msg is None:
                return
        if self._crashed:
            return
        delay = self.busy_until - self.scheduler._now
        self.network.send(self.node_id, dst, msg, None,
                          delay if delay > 0 else 0.0)

    def multicast(self, dsts, msg):
        if self._behavior is not HONEST:
            for dst in dsts:
                self.send(dst, msg)
        elif not self._crashed:
            # True IP multicast, as :meth:`Node.multicast`.
            delay = self.busy_until - self.scheduler._now
            self.network.multicast(self.node_id, dsts, msg,
                                   delay if delay > 0 else 0.0)

    # -- authentication helpers ------------------------------------------------------

    def authenticate(self, msg: Message) -> Message:
        """Attach a MAC authenticator for all other replicas.

        MACs cover the message *digest* (hashed once, cached), so the
        cost is one body hash plus a constant-size MAC per receiver —
        independent of how large the piggybacked batch is.
        """
        others = self.other_replicas
        msg.auth = Authenticator.create(self.registry, self.node_id, others,
                                        msg.digest())
        self.charge(self.costs.auth_create(len(others), msg.body_size))
        return msg

    def authenticate_for(self, msg: Message, dst: str) -> Message:
        msg.auth = Authenticator.create(self.registry, self.node_id, (dst,),
                                        msg.digest())
        self.charge(self.costs.auth_create(1, msg.body_size))
        return msg

    def sign_msg(self, msg: Message) -> Message:
        msg.sig = sign(self.registry, self.node_id, msg.body())
        self.charge(self.costs.signature)
        self._note_verified((self.node_id, msg.body(), msg.sig))
        return msg

    def verify_sig(self, signer: str, msg: Message) -> bool:
        """Once per replica: a signature it made or checked over the same
        bytes is not checked or charged again; a failed check is not kept."""
        key = (signer, msg.body(), msg.sig)
        if key in self.verified_sigs:
            return True
        self.charge(self.costs.signature)
        if msg.sig is None or not verify_signature(self.registry, signer,
                                                   key[1], msg.sig):
            return False
        self._note_verified(key)
        return True

    def _note_verified(self, key: Tuple[str, bytes, bytes]) -> None:
        memo = self.verified_sigs
        memo[key] = None
        if len(memo) > self.config.verified_sig_bound:
            del memo[next(iter(memo))]      # the oldest goes first

    def trace(self, kind: str, *fields) -> None:
        self.tracer.record(self.scheduler._now, self.node_id, kind, fields)

    # -- the gate: every delivery passes its kind's contract ---------------------

    def on_message(self, src, msg):
        """Enforce the kind's wire contract (``contract`` in
        :mod:`repro.bft.messages`), then dispatch.  The free checks and the
        view screen come first, so a message for another view is stashed
        or dropped unverified (docs/PERFORMANCE.md, "Rules for hot-path
        work")."""
        if self._crashed or self.recovery.rebooting:
            # Crashed, or fully offline through shutdown + reboot.
            return
        # During fetch-and-check the replica participates in agreement
        # again and serves state transfer to peers (everything served is
        # digest-verified by the fetcher, so a possibly-corrupt donor
        # cannot do harm); only *execution* waits for the state check —
        # see the guards in try_execute and the read-only path.
        entry = self._handlers.get(getattr(msg, "kind", None))
        if entry is None:
            return
        handler, field, proof, relayed, view = entry
        if field is not None:
            principal = (self.config.primary_of(msg.view) if field is PRIMARY
                         else getattr(msg, field))
            if (not relayed and src != principal or field == "replica_id"
                    and principal not in self._members):
                return
        if view is CURRENT:
            if msg.view != self.view:
                if msg.view > self.view:
                    self._stash_future(src, msg)
                return
        elif view is LATER and msg.view <= self.view:
            if msg.kind == "view_change":
                self.view_changes.resend_new_view(src, msg.view)
            return
        if proof is MAC:
            if not verify_auth(self, principal, msg):
                if msg.kind == "request":
                    self.trace("bad_request_auth", principal)
                return
        elif proof is SIG and not self.verify_sig(principal, msg):
            return
        handler(src, msg)

    # -- client requests -----------------------------------------------------------

    def handle_request(self, src, req: Request) -> None:
        last = self.client_table.get(req.client_id)
        if last is not None and req.request_id <= last[0]:
            if req.request_id == last[0]:
                self._send_cached_reply(req.client_id, last[0], last[1])
            return
        if req.read_only and self.config.read_only_optimization:
            # A recovering or fetching replica must not answer reads from
            # unchecked state; the others provide the 2f+1 quorum.
            if not self.recovery.recovering and not self.transfer.active:
                self._execute_read_only(req)
            return
        if self.view_changes.active:
            return
        key = (req.client_id, req.request_id)
        if self.is_primary:
            if key in self.in_flight:
                # Duplicate of an in-flight request: some backup probably
                # missed the pre-prepare; retransmit it.
                slot = self.log.get(self.in_flight[key])
                if slot is not None and slot.pre_prepare is not None \
                        and slot.pre_prepare.view == self.view:
                    self.multicast(self.other_replicas, slot.pre_prepare)
            elif key not in self.pending:
                self.pending[key] = req
                self._request_arrival.setdefault(key, self.scheduler._now)
                self._note_arrival()
                self.try_send_pre_prepare()
        else:
            # Relay to the primary (forwarding the client's authenticator)
            # and start the view-change timer: if the primary is faulty and
            # never orders the request, we elect a new one.
            self.send(self.primary_id, req)
            self.waiting[key] = req
            self.vc_timer.start()

    def _send_cached_reply(self, client_id: str, request_id: int,
                           result: bytes) -> None:
        # Retransmissions are rare; always send the full result.  A
        # cached result whose execution has not yet committed is still
        # tentative — the client must assemble a 2f+1 commit certificate
        # for it, not a weak f+1 quorum.
        tentative = (self._reply_seq.get(client_id, 0)
                     > self.committed_frontier)
        reply = Reply(self.view, request_id, client_id, self.node_id,
                      result, digest(result), tentative)
        self.authenticate_for(reply, client_id)
        self.send(client_id, reply)

    def _execute_read_only(self, req: Request) -> None:
        """Read-only optimization: execute against current state, reply
        tentatively; the client requires 2f+1 matching tentative replies."""
        result = self._safe_execute(req.op, req.client_id, req.request_id,
                                    self.last_executed, b"", read_only=True)
        if self._behavior is not HONEST:
            result = self._behavior.corrupt_reply_result(result)
        rdigest = self._reply(req.client_id, req.request_id, result,
                              tentative=True, force_full=True, read_only=True)
        self.trace("read_only_executed", self.last_executed, req.client_id,
                   req.request_id, rdigest)

    def handle_edge_read(self, src, msg: EdgeRead) -> None:
        """Serve a single-replica edge read with staleness evidence.

        Unlike the read-only optimization there is no quorum: the edge
        accepts this one replica's word plus its version vector — the
        last *stable* checkpoint (which 2f+1 replicas certified and no
        view change can roll back) and the sim time this read executed.
        The whole reply is MAC'd for the edge, so a network party cannot
        forge evidence; a Byzantine replica can still lie, which is
        exactly the trust the staleness contract advertises.
        """
        if self.recovery.recovering or self.transfer.active:
            # Unchecked state must not anchor staleness evidence.
            return
        result = self._safe_execute(msg.op, msg.edge_id, msg.nonce,
                                    self.last_executed, b"", read_only=True)
        result = self.behavior.corrupt_reply_result(result)
        seq, root, stable_at_us = self.stable_vector
        reply = EdgeReadReply(self.node_id, msg.edge_id, msg.nonce,
                              result, digest(result), seq, root,
                              stable_at_us, int(self.now * 1_000_000))
        self.charge(self.costs.digest(len(result)))
        self.authenticate_for(reply, msg.edge_id)
        self.send(msg.edge_id, reply)
        self.trace("edge_read_served", msg.edge_id, msg.nonce)

    # -- primary: ordering ------------------------------------------------------------

    def _note_arrival(self) -> None:
        """Track the request inter-arrival EWMA at the primary (feeds the
        adaptive batch controller's hold-window decision)."""
        now = self.now
        if self._last_request_at is not None:
            gap = now - self._last_request_at
            ewma = self._arrival_ewma
            self._arrival_ewma = gap if ewma is None \
                else 0.8 * ewma + 0.2 * gap
        self._last_request_at = now

    def _should_hold_batch(self) -> bool:
        """Hold an undersized batch briefly when the arrival rate says
        more requests are imminent; never hold Poisson trickles (EWMA
        above the window cap) or once the hold window expired."""
        if self._hold_forced:
            return False
        if len(self.pending) >= self._batch_target:
            return False
        ewma = self._arrival_ewma
        if ewma is None or ewma > BATCH_WINDOW_MAX:
            return False
        if self._hold_event is not None and not self._hold_event.cancelled:
            return True
        deficit = self._batch_target - len(self.pending)
        window = min(ewma * deficit, BATCH_WINDOW_MAX)
        self._hold_event = self.after(window, self._on_batch_hold)
        return True

    def _on_batch_hold(self) -> None:
        self._hold_event = None
        self._hold_forced = True
        try:
            self.try_send_pre_prepare()
        finally:
            self._hold_forced = False

    def _note_batch_sent(self, size: int) -> None:
        """AIMD batch-size target: grow when the bound was binding
        (batch filled and requests still queued), shrink when batches
        run at half target or less."""
        self.tracer.metrics.observe("batch.size", float(size))
        if size >= self._batch_target and self.pending:
            self._batch_target = min(self._batch_target * 2,
                                     self.config.batch_max)
        elif size * 2 <= self._batch_target:
            self._batch_target = max(self._batch_target // 2, 1)

    def try_send_pre_prepare(self) -> None:
        if not self.is_primary or self.view_changes.active:
            return
        while self.pending:
            # Batching: with the outstanding window full, arriving requests
            # queue in ``pending`` and ride the next pre-prepare together.
            outstanding = self.seq_assigned - self.last_executed
            if outstanding >= MAX_OUTSTANDING:
                return
            if self.seq_assigned + 1 > self.last_stable + self._log_window:
                return
            if self._should_hold_batch():
                return
            if self._hold_event is not None:
                self._hold_event.cancel()
                self._hold_event = None
            batch: List[Request] = []
            bound = max(self._batch_target, 1)
            while self.pending and len(batch) < bound:
                key, req = self.pending.popitem(last=False)
                batch.append(req)
            seq = self.seq_assigned + 1
            self.seq_assigned = seq
            for req in batch:
                key = (req.client_id, req.request_id)
                self.in_flight[key] = seq
                arrived = self._request_arrival.pop(key, None)
                if arrived is not None:
                    self.tracer.observe_phase("request_to_pre_prepare",
                                              self.now - arrived)
            nondet = self.state.propose_nondet(batch, seq)
            nondet = self.behavior.bad_nondet(nondet)
            pp = PrePrepare(self.view, seq, tuple(batch), nondet)
            self.authenticate(pp)
            self.trace("pre_prepare_sent", seq, len(batch))
            if self.behavior.equivocate_pre_prepare() and len(batch) == 1:
                self._send_equivocating(pp, batch[0])
            else:
                self.multicast(self.other_replicas, pp)
            # The primary's own log entry; its pre-prepare stands in for
            # its prepare, so no separate prepare is recorded or sent.
            slot = self.log.slot(seq)
            slot.pre_prepare = pp
            slot.phase_marks["pre_prepare"] = self.now
            self._note_batch_sent(len(batch))
            self._check_prepared(slot)

    def _send_equivocating(self, pp: PrePrepare, req: Request) -> None:
        """Byzantine primary: half the backups get a conflicting ordering."""
        alt = PrePrepare(pp.view, pp.seq, (Request.null(),), pp.nondet)
        self.authenticate(alt)
        others = self.other_replicas
        for i, dst in enumerate(others):
            self.send(dst, pp if i % 2 == 0 else alt)

    # -- three-phase protocol ---------------------------------------------------------

    def _stash_future(self, src, msg) -> None:
        """Buffer a message from a view we have not entered yet, and
        note that its sender operates there: a replica that was down
        for a view change is told of it by nobody else.  The gate has
        checked ``msg.view > self.view`` and that ``src`` is the
        message's principal and a group member."""
        if (msg.view > self._peer_views.get(src, 0)
                and verify_auth(self, src, msg)):
            self._peer_views[src] = msg.view
        self._solicit_missed_view()
        if len(self._future_view_msgs) < 512:
            self._future_view_msgs.append((src, msg))

    def _solicit_missed_view(self) -> None:
        """With f+1 peers above our view, one correct replica entered a
        view we missed: ask for the NEW-VIEW that proves it (peers
        answer FETCH-CERT with theirs), once per view."""
        f = self.config.f
        if len(self._peer_views) <= f or self.view_changes.active:
            return
        view = sorted(self._peer_views.values(), reverse=True)[f]
        if view > max(self.view, self._view_solicited):
            self._view_solicited = view
            self.trace("view_solicited", view)
            self.transfer.solicit_certs()

    def redeliver_future_msgs(self) -> None:
        """Re-dispatch buffered messages whose view we have now reached."""
        stashed, self._future_view_msgs = self._future_view_msgs, []
        for src, msg in stashed:
            if msg.view >= self.view:
                self.on_message(src, msg)

    def _low_water(self) -> int:
        """h of the ordering window (h, h + L]: the stable checkpoint, or
        while fetching, the checkpoint fetched (the group orders above it)."""
        if self.transfer.active:
            return max(self.last_stable, self.transfer.target_seq)
        return self.last_stable

    def handle_pre_prepare(self, src, pp: PrePrepare) -> None:
        low = self._low_water()
        if not (low < pp.seq <= low + self._log_window):
            return
        slot = self.log.slot(pp.seq)
        if slot.pre_prepare is not None:
            if slot.pre_prepare.view == pp.view:
                if slot.pre_prepare.batch_digest() != pp.batch_digest():
                    # Two different pre-prepares for the same (view, seq)
                    # can only come from a faulty primary: suspect it.
                    self.trace("conflicting_pre_prepare", pp.seq)
                    self.view_changes.start(self.view + 1)
                return
            # The logged pre-prepare is from an older view that the view
            # change did not carry forward — stale; replace it.
            slot.void_votes()
        if not self.state.check_nondet(list(pp.requests), pp.seq, pp.nondet):
            self.trace("nondet_rejected", pp.seq)
            # Do not accept; the vc timer will fire and replace the primary.
            self.vc_timer.start()
            return
        slot.pre_prepare = pp
        slot.phase_marks = {"pre_prepare": self.scheduler._now}
        for req in pp.requests:
            if not req.is_null:
                self.waiting[(req.client_id, req.request_id)] = req
        self.vc_timer.start()
        prep = Prepare(pp.view, pp.seq, pp.batch_digest(), self.node_id)
        self.authenticate(prep)
        self.multicast(self.other_replicas, prep)
        slot.prepares[self.node_id] = prep
        self._check_prepared(slot)

    def handle_prepare(self, src, prep: Prepare) -> None:
        if prep.replica_id == self.primary_id:
            return  # the primary's pre-prepare is its prepare
        low = self._low_water()
        if not (low < prep.seq <= low + self._log_window):
            return
        slot = self.log.slot(prep.seq)
        slot.prepares[src] = prep
        if not slot.prepared:
            self._check_prepared(slot)

    def _check_prepared(self, slot) -> None:
        if slot.prepared or slot.pre_prepare is None:
            return
        # pre-prepare counts as the primary's prepare: need 2f matching
        # prepares from non-primary replicas (self included when backup).
        if slot.matching_prepares() >= self._prepare_votes:
            slot.prepared = True
            if (slot.prepared_cert is None
                    or slot.prepared_cert[0] < self.view):
                slot.prepared_cert = (self.view, slot.pre_prepare)
            self.trace("prepared", slot.seq)
            now = self.scheduler._now
            mark = slot.phase_marks.get("pre_prepare")
            if mark is not None:
                self.tracer.observe_phase("pre_prepare_to_prepared",
                                          now - mark)
            slot.phase_marks["prepared"] = now
            com = Commit(self.view, slot.seq,
                         slot.pre_prepare.batch_digest(), self.node_id)
            self.authenticate(com)
            self.multicast(self.other_replicas, com)
            slot.commits[self.node_id] = com
            self._check_committed(slot)
            if not slot.executed and self.config.tentative_execution:
                # Fast path: execute at prepared, before the commit
                # certificate completes (replies go out tentative).
                self.try_execute()

    def handle_commit(self, src, com: Commit) -> None:
        low = self._low_water()
        if not (low < com.seq <= low + self._log_window):
            return
        slot = self.log.slot(com.seq)
        slot.commits[src] = com
        if slot.prepared and not slot.committed:
            self._check_committed(slot)

    def _check_committed(self, slot) -> None:
        if slot.committed or not slot.prepared:
            return
        if slot.matching_commits() >= self._quorum:
            slot.committed = True
            self.trace("committed", slot.seq)
            now = self.scheduler._now
            mark = slot.phase_marks.get("prepared")
            if mark is not None:
                self.tracer.observe_phase("prepared_to_committed",
                                          now - mark)
            slot.phase_marks["committed"] = now
            if slot.executed:
                # Already executed on the fast path; the commit
                # certificate just made that execution durable.
                self._advance_committed_frontier()
            else:
                self.try_execute()

    def _advance_committed_frontier(self) -> None:
        """Walk the committed-execution frontier forward, downgrading
        tentative executions to committed as their certificates land."""
        seq = max(self.last_committed_exec, self.last_stable)
        while seq < self.last_executed:
            slot = self.log.get(seq + 1)
            if slot is None or not slot.executed or not slot.committed:
                break
            slot.tentative = False
            seq += 1
        self.last_committed_exec = seq
        if not self.waiting and seq >= self.last_executed:
            self.vc_timer.stop()

    # -- execution ------------------------------------------------------------------

    def try_execute(self) -> None:
        if self.transfer.active or self.recovery.recovering:
            return
        fast = (self.config.tentative_execution
                and not self.view_changes.active)
        while True:
            slot = self.log.get(self.last_executed + 1)
            if slot is None or slot.executed:
                break
            if slot.committed:
                tentative = False
            elif fast and slot.prepared:
                tentative = True
            else:
                break
            pp = slot.pre_prepare
            self.last_executed = slot.seq
            slot.executed = True
            slot.tentative = tentative
            if tentative:
                mark = slot.phase_marks.get("prepared")
                if mark is not None:
                    self.tracer.observe_phase("prepared_to_executed",
                                              self.scheduler._now - mark)
            else:
                mark = slot.phase_marks.get("committed")
                if mark is not None:
                    self.tracer.observe_phase("committed_to_executed",
                                              self.scheduler._now - mark)
            for req in pp.requests:
                self._execute_request(req, slot.seq, pp.nondet, tentative)
            if not tentative and self.committed_frontier == slot.seq - 1:
                self.last_committed_exec = slot.seq
            if slot.seq % self.config.checkpoint_interval == 0:
                self._take_checkpoint(slot.seq)
        if self.is_primary:
            self.try_send_pre_prepare()
        # The vc timer guards commit-phase liveness too: a tentatively
        # executed slot whose certificate never completes must still
        # depose the primary, so only quiesce once the frontier catches
        # up to the execution point.
        if not self.waiting and self.committed_frontier >= self.last_executed:
            self.vc_timer.stop()
        else:
            self.vc_timer.restart()

    def _execute_request(self, req: Request, seq: int, nondet: bytes,
                         tentative: bool = False) -> None:
        client_id, request_id = req.client_id, req.request_id
        key = (client_id, request_id)
        self.waiting.pop(key, None)
        self.in_flight.pop(key, None)
        self._request_arrival.pop(key, None)
        if client_id == NULL_CLIENT:
            return
        last = self.client_table.get(client_id)
        if last is not None and request_id <= last[0]:
            return  # duplicate within a re-proposed batch
        result = self._safe_execute(req.op, client_id, request_id, seq,
                                    nondet)
        if self._behavior is not HONEST:
            result = self._behavior.corrupt_reply_result(result)
        rdigest = self._reply(client_id, request_id, result, tentative, seq)
        self.trace("executed", seq, client_id, request_id, tentative, rdigest)

    def _safe_execute(self, op: bytes, client_id: str, request_id: int,
                      seq: int, nondet: bytes,
                      read_only: bool = False) -> bytes:
        """Execute, mapping service exceptions to deterministic error
        results: a Byzantine client's malformed operation must not crash
        replicas, and all correct replicas must produce the same reply."""
        try:
            return self.state.execute(op, client_id, request_id, seq,
                                      nondet, read_only=read_only)
        except Exception as exc:
            self.trace("execute_error", type(exc).__name__)
            return ERROR_PREFIX + type(exc).__name__.encode("ascii")

    def _reply(self, client_id: str, request_id: int, result: bytes,
               tentative: bool = False, seq: int = 0,
               force_full: bool = False, read_only: bool = False) -> bytes:
        """Send the reply; returns the result digest it carries (the
        ``result`` field of the execution event the caller emits)."""
        rdigest = digest(result)
        self.charge(self.costs.digest(len(result)))
        # One designated replica sends the full result for each seq.
        full = force_full or self._index == seq % self.config.n
        reply = Reply(self.view, request_id, client_id, self.node_id,
                      result if full else None, rdigest, tentative,
                      read_only)
        if not read_only:
            # Every *ordered* execution — tentative included — updates
            # the reply cache: a rollback reinstalls the cache from the
            # stable checkpoint blob, so tentative entries never survive
            # a re-ordering.
            self.client_table[client_id] = (request_id, result)
            self._reply_seq[client_id] = seq
        self.authenticate_for(reply, client_id)
        self.send(client_id, reply)
        return rdigest

    # -- checkpoints -------------------------------------------------------------------

    def serialize_client_table(self) -> bytes:
        entries = tuple(sorted(
            (client, request_id, result)
            for client, (request_id, result) in self.client_table.items()))
        return canonical(entries)

    def install_client_table(self, blob: bytes) -> None:
        self.client_table = {
            client: (request_id, result)
            for client, request_id, result in decanonical(blob)}

    #: Checkpoint-history entries retained for staleness-contract audits.
    _HISTORY_MAX = 512

    def _note_checkpoint(self, seq: int, root: bytes) -> None:
        self.checkpoint_history.append((seq, root))
        if len(self.checkpoint_history) > self._HISTORY_MAX:
            del self.checkpoint_history[:-self._HISTORY_MAX]

    def record_table_checkpoint(self, seq: int) -> Tuple[bytes, bytes]:
        """Checkpoint the reply cache as it stands, as the one at
        ``seq``; returns the ``(digest, blob)`` retained."""
        blob = self.serialize_client_table()
        entry = self.table_checkpoints[seq] = (digest(blob), blob)
        return entry

    def _take_checkpoint(self, seq: int) -> None:
        root = self.state.take_checkpoint(seq)
        self._note_checkpoint(seq, root)
        table_digest, table_blob = self.record_table_checkpoint(seq)
        self.charge(self.costs.digest(len(table_blob)))
        self.trace("checkpoint_taken", seq)
        # Checkpoint messages are signed (not MACed) so that certificates
        # assembled from them are independently verifiable by third parties
        # — view-change messages and recovering replicas rely on this.
        msg = CheckpointMsg(seq, root, table_digest, self.node_id)
        self.sign_msg(msg)
        self.multicast(self.other_replicas, msg)
        self._latest_checkpoint_msg = msg
        self._ckpt_retry_timer.restart()
        self._record_checkpoint_msg(self.node_id, msg)

    def _retransmit_checkpoint(self) -> None:
        msg = self._latest_checkpoint_msg
        if (msg is not None and msg.seq > self.last_stable
                and not self.recovery.rebooting):
            self.multicast(self.other_replicas, msg)
            self._ckpt_retry_timer.restart()

    def handle_checkpoint(self, src, msg: CheckpointMsg) -> None:
        if msg.seq <= self.last_stable:
            return
        self._record_checkpoint_msg(src, msg)

    def valid_checkpoint_cert(self, seq: int, root: bytes, msgs) -> bool:
        """A valid certificate: quorum of distinct, correctly signed
        CHECKPOINT messages all vouching for (seq, root) and agreeing on
        the reply-cache digest."""
        seen = set()
        table_digests = set()
        for m in msgs:
            if (getattr(m, "kind", "") != "checkpoint" or m.seq != seq
                    or m.root_digest != root
                    or m.replica_id not in self.config.replica_ids
                    or m.replica_id in seen):
                continue
            if not self.verify_sig(m.replica_id, m):
                continue
            seen.add(m.replica_id)
            table_digests.add(m.table_digest)
        return len(seen) >= self.config.quorum and len(table_digests) == 1

    def _record_checkpoint_msg(self, src: str, msg: CheckpointMsg) -> None:
        by_replica = self.checkpoint_msgs.setdefault(msg.seq, {})
        by_replica[src] = msg
        matching = [m for m in by_replica.values()
                    if m.root_digest == msg.root_digest
                    and m.table_digest == msg.table_digest]
        if len(matching) < self.config.quorum:
            return
        cert = tuple(sorted(matching, key=lambda m: m.replica_id))
        own_root = self.state.checkpoint_root(msg.seq)
        own_table = self.table_checkpoints.get(msg.seq)
        if own_root == msg.root_digest and own_table is not None \
                and own_table[0] == msg.table_digest:
            self._mark_stable(msg.seq, cert)
        elif msg.seq > self.last_executed:
            # We are out of date (missed requests that were garbage
            # collected) — fetch the stable checkpoint.
            self.transfer.initiate(msg.seq, msg.root_digest, cert)
        elif own_root is not None and msg.seq >= self.last_stable:
            # We took this checkpoint ourselves and our digest differs:
            # our state is corrupt or diverged; fetch from the others.
            # (A *missing* record is NOT divergence — it just means we
            # state-transferred past this seq and never took it; rolling
            # back on stale certificates would rewrite executed history.)
            self.trace("checkpoint_divergence", msg.seq)
            self.transfer.initiate(msg.seq, msg.root_digest, cert,
                                   force=True)

    def adopt_checkpoint(self, seq: int, root: bytes,
                         cert: Tuple[CheckpointMsg, ...]) -> None:
        """Make the certified checkpoint ``(seq, root)`` the stable one:
        the low water mark, the proof view changes carry, the version
        vector edge reads carry (MAC'd per edge receiver at reply time),
        and nothing retained under it.  A checkpoint installed by state
        transfer joins the history here, so staleness audits see it."""
        self.last_stable = seq
        self.stable_cert = cert
        if self.checkpoint_history[-1] != (seq, root):
            self._note_checkpoint(seq, root)
        self.stable_vector = (seq, root, int(self.now * 1_000_000))
        # The 2f+1 certificate makes every execution under it durable.
        if self.last_committed_exec < seq:
            self.last_committed_exec = seq
        self.log.truncate_below(seq)
        self.state.discard_checkpoints_below(seq)
        for old in [s for s in self.table_checkpoints if s < seq]:
            del self.table_checkpoints[old]
        for old in [s for s in self.checkpoint_msgs if s <= seq]:
            del self.checkpoint_msgs[old]

    def _mark_stable(self, seq: int, cert: Tuple[CheckpointMsg, ...]) -> None:
        if seq <= self.last_stable:
            return
        self.adopt_checkpoint(seq, cert[0].root_digest, cert)
        self._advance_committed_frontier()
        self.trace("checkpoint_stable", seq)
        if self._latest_checkpoint_msg is not None \
                and self._latest_checkpoint_msg.seq <= seq:
            self._ckpt_retry_timer.stop()
        if self.is_primary:
            self.try_send_pre_prepare()  # watermarks moved

    # -- rollback of tentative executions ---------------------------------------------

    def rollback_to_stable(self) -> bool:
        """Undo tentative executions above the stable checkpoint.

        Invoked when a view change re-orders history past executions we
        performed at prepared time.  Restores the service state and the
        client reply cache from the local checkpoint at ``last_stable``
        and un-marks every retained slot as executed so ``try_execute``
        replays the new view's order.  Falls back to state transfer when
        no local checkpoint survives (e.g. it was itself discarded)."""
        seq = self.last_stable
        restored = self.state.restore_checkpoint(seq)
        table = self.table_checkpoints.get(seq)
        if not restored or table is None:
            self.trace("rollback_via_transfer", seq)
            self.tracer.metrics.inc("bft.rollback_via_transfer")
            if self.stable_cert:
                self.transfer.initiate(seq, self.stable_cert[0].root_digest,
                                       self.stable_cert, force=True)
            return False
        self.install_client_table(table[1])
        self.rewind_execution(seq)
        self.trace("rollback", seq)
        self.tracer.metrics.inc("bft.rollback")
        return True

    def rewind_execution(self, seq: int) -> None:
        """Execution resumes from the checkpoint at ``seq``, which the
        caller has installed (service state and reply cache): every
        retained slot replays, and nothing derived from an execution
        above ``seq`` is kept."""
        self._reply_seq.clear()
        self.last_executed = seq
        self.last_committed_exec = seq
        self.log.unexecute_all()
        # Our own checkpoints above it described rolled-back state; drop
        # them (peers' votes for those seqs remain valid — a batch
        # tentatively executed by f+1 correct replicas is preserved by
        # every view change, so their announcements never certify state
        # that rollback erased).
        for s in [s for s in self.table_checkpoints if s > seq]:
            del self.table_checkpoints[s]
        if self._latest_checkpoint_msg is not None \
                and self._latest_checkpoint_msg.seq > seq:
            self._latest_checkpoint_msg = None
            self._ckpt_retry_timer.stop()

    # -- view changes ---------------------------------------------------------------------

    def _on_vc_timeout(self) -> None:
        if self.recovery.recovering or self.transfer.active:
            return
        self.trace("vc_timeout", self.view)
        self.view_changes.start(self.view + 1)
