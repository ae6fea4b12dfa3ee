"""BFT client: invoke operations and vote on replies.

The client sends a request to the primary; if it does not accept a result
within the retry timeout it multicasts to all replicas (whose relays and
timers eventually force a view change if the primary is faulty).  A
result is accepted once f+1 replicas vouch for the same result digest —
at least one of them is correct — and the full result bytes arrived from
at least one of them.

Fast paths:

- *Tentative execution*: replicas execute prepared batches before the
  commit phase finishes and reply marked tentative; 2f+1 matching
  tentative replies form a *commit certificate* (the request's position
  survives any view change), letting the client accept one round early.
  A committed reply counts toward it too (that replica prepared the
  batch).  Fewer matching replies fall back to the f+1 committed rule.
- *Designated replier*: replica ``seq % n`` sends the full result, the
  rest digests.  A certificate complete without the bytes waits
  ``NUDGE_GRACE``, then retransmits; the replicas it lacked stay *mute*
  until they vote in an accepted quorum, and a certificate lacking only
  mute replicas retransmits at once.
- *Read-only optimization*: read-only requests go straight to all
  replicas, execute against current state, and need 2f+1 matching
  read-only replies; if that quorum does not show up (concurrent writes
  or faults), the client falls back to the ordered path.  Votes from the
  read-only attempt are discarded on fallback — they certified a read
  against unordered state, not the ordered execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.bft.config import BftConfig
from repro.bft.costs import CostModel, ZERO_COSTS
from repro.bft.messages import Reply, Request, verify_auth
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import Authenticator
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.tracing import Tracer


# Grace before the client retransmits on a complete result-digest
# certificate with no full result: the designated replier's bytes are
# usually still in flight, so waiting a moment beats re-MACing and
# re-sending the request to every replica.  A replier it expires on is
# mute, and costs no further grace until it votes in an accepted quorum.
NUDGE_GRACE = 0.002
# The retry timer doubles per timeout up to this many retry timeouts.
RETRY_BACKOFF_MAX = 16


@dataclass(frozen=True)
class ReadCertificate:
    """Proof backing one accepted read: the result, the replicas whose
    authenticated replies certified it, and which path certified it
    (``read_only`` when the 2f+1 unordered quorum held, else the ordered
    path the call fell back to).  The edge tier turns this into lease
    evidence; ``issued_at``/``accepted_at`` bound when the certified
    execution can have happened."""

    result: bytes
    result_digest: bytes
    voters: Tuple[str, ...]
    path: str                # "read_only" | "tentative" | "committed"
    view: int
    issued_at: float         # sim time the read was issued
    accepted_at: float       # sim time the quorum completed


@dataclass
class _PendingCall:
    request: Request
    callback: Callable[[bytes], None]
    read_only: bool
    # result_digest -> set of replica ids vouching for it
    votes: Dict[bytes, Set[str]] = field(default_factory=dict)
    results: Dict[bytes, bytes] = field(default_factory=dict)
    # Votes of the replicas that executed the request prepared, tentative
    # or committed (a committed execution was prepared there too): 2f+1
    # matching form a commit certificate.
    tentative_votes: Dict[bytes, Set[str]] = field(default_factory=dict)
    # Read-only-optimization votes, kept apart from the ordered quorums:
    # they certify a read against *unordered* state and become worthless
    # the moment the call falls back to the ordered path.
    ro_votes: Dict[bytes, Set[str]] = field(default_factory=dict)
    retries: int = 0
    nudged: bool = False  # fast retransmit for a missing full result
    started_at: float = 0.0  # invoke time, for phase.request_to_reply


class BftClient(Node):
    """Protocol client; use :class:`SyncClient` for imperative call style."""

    def __init__(self, client_id: str, network: Network, config: BftConfig,
                 registry: KeyRegistry, tracer: Tracer,
                 costs: CostModel = ZERO_COSTS):
        super().__init__(client_id, network)
        self.config = config
        self.registry = registry
        self.tracer = tracer
        self.costs = costs
        registry.enroll(client_id)
        # Fixed for the life of the group, read on every reply.
        self._replicas = frozenset(config.replica_ids)
        self._quorum = config.quorum
        self._weak_quorum = config.weak_quorum
        self.view_estimate = 0
        self._next_request_id = 0
        self._pending: Optional[_PendingCall] = None
        self._retry_timer = self.make_timer(config.client_retry_timeout,
                                            self._on_retry)
        self._nudge_timer = self.make_timer(NUDGE_GRACE,
                                            self._on_nudge_grace)
        # (path, voters) of the most recent acceptance — what
        # collect_read_certificate packages into a ReadCertificate.
        self._last_accept: Tuple[str, Tuple[str, ...]] = ("", ())
        # Repliers a grace expired on, until they next vote in an accepted
        # quorum: a subset of the n replicas.
        self._mute: Set[str] = set()

    @property
    def busy(self) -> bool:
        return self._pending is not None

    # -- issuing requests ----------------------------------------------------------

    def invoke(self, op: bytes, callback: Callable[[bytes], None],
               read_only: bool = False) -> int:
        """Issue one operation; ``callback(result)`` fires on acceptance.

        One outstanding operation per client, as in BFT.  Returns the
        request id.
        """
        if self._pending is not None:
            raise RuntimeError(f"client {self.node_id} already has an "
                               f"outstanding request")
        self._next_request_id += 1
        request = Request(self.node_id, self._next_request_id, op,
                          read_only=read_only and
                          self.config.read_only_optimization)
        self._pending = _PendingCall(request, callback, request.read_only,
                                     started_at=self.now)
        self.tracer.metrics.inc("client.requests")
        self._transmit(first=True)
        self._retry_timer.restart(self.config.client_retry_timeout)
        return self._next_request_id

    def collect_read_certificate(
            self, op: bytes,
            callback: Callable[[ReadCertificate], None]) -> int:
        """Read via the read-only fast path, surfacing the accepting
        quorum as a :class:`ReadCertificate`.

        Shares :meth:`invoke`'s machinery wholesale — vote banking per
        digest, the ordered fallback after two read-only retries, and
        the fallback's clearing of banked ``ro_votes`` (votes certifying
        a read of unordered state must never count toward the ordered
        quorums).  The certificate reports which path finally accepted,
        so lease-refresh callers know whether the read was certified
        unordered (fresh at ``accepted_at``) or ordered.
        """
        issued_at = self.now

        def wrap(result: bytes) -> None:
            path, voters = self._last_accept
            callback(ReadCertificate(
                result=result, result_digest=digest(result), voters=voters,
                path=path, view=self.view_estimate, issued_at=issued_at,
                accepted_at=self.now))

        return self.invoke(op, wrap, read_only=True)

    def _transmit(self, first: bool) -> None:
        call = self._pending
        request = call.request
        # MAC-over-digest: hash the request once, MAC the digest per replica.
        replicas = self.config.replica_ids
        request.auth = Authenticator.create(
            self.registry, self.node_id, replicas,
            request.sealed_digest or request.digest())
        self.charge(self.costs.auth_create(len(replicas), request.body_size))
        if call.read_only or not first:
            self.multicast(replicas, request)
        else:
            self.send(self.config.primary_of(self.view_estimate), request)

    def _on_retry(self) -> None:
        """Retry timeout fired: retransmit and escalate the backoff.

        Only timeout-driven retransmissions advance ``call.retries`` (and
        with it the exponential backoff and the read-only fallback);
        instant nudges go through :meth:`_fast_retransmit`.
        """
        call = self._pending
        if call is None:
            return
        call.retries += 1
        self.tracer.metrics.inc("client.retransmissions")
        if call.read_only and call.retries >= 2:
            # Fall back to the ordered path: reissue as a normal request
            # under the same request id.  Every vote gathered on the
            # read-only attempt is discarded — in particular ro_votes,
            # which must never count toward the ordered quorums (late
            # read-only replies are additionally gated in handle_reply).
            call.read_only = False
            call.request = Request(self.node_id, call.request.request_id,
                                   call.request.op, read_only=False)
            call.votes.clear()
            call.results.clear()
            call.tentative_votes.clear()
            call.ro_votes.clear()
            self.tracer.metrics.inc("client.read_only_fallbacks")
        self._nudge_timer.stop()
        self._transmit(first=False)
        timeout = self.config.client_retry_timeout * min(2 ** call.retries,
                                                         RETRY_BACKOFF_MAX)
        self._retry_timer.restart(timeout)

    def _fast_retransmit(self) -> None:
        """Retransmit immediately without touching the backoff schedule.

        Used when the result is already certified by f+1 digests but no
        replica delivered the full bytes: the retry timer keeps running at
        its current deadline, ``call.retries`` stays put (so the next real
        timeout does not double early), and a read-only request does not
        burn one of its two attempts before the ordered fallback.
        """
        if self._pending is None:
            return
        self.tracer.metrics.inc("client.fast_retransmissions")
        self._transmit(first=False)

    def _on_nudge_grace(self) -> None:
        """The grace window after a bytes-less commit certificate expired
        with the full result still missing: nudge now."""
        call = self._pending
        if call is None or call.nudged:
            return
        for voters in call.tentative_votes.values():
            if len(voters) >= self._quorum:
                self._mute |= self._replicas - voters
        call.nudged = True
        self._fast_retransmit()

    def cancel(self) -> bool:
        """Abandon the outstanding call (no callback will fire).

        Open-loop drivers use this when a request blows its deadline: the
        logical session gives up, the pool client becomes free for the
        next arrival, and any late replies are ignored (stale request id).
        Returns True if there was a call to abandon.
        """
        if self._pending is None:
            return False
        self._pending = None
        self._retry_timer.stop()
        self._nudge_timer.stop()
        self.tracer.metrics.inc("client.cancelled")
        return True

    # -- accepting replies --------------------------------------------------------------

    def handle_reply(self, src, reply: Reply) -> None:
        call = self._pending
        if call is None or reply.request_id != call.request.request_id:
            return
        # One vote per replica, and only the replica's own: the reply must
        # carry an authenticator it made for us.  An unauthenticated reply
        # proves nothing about its sender (f+1 counts only hold if every
        # vote is from a distinct authenticated replica).
        voter = reply.replica_id
        if voter not in self._replicas or not verify_auth(self, voter, reply):
            return
        if reply.result is not None:
            if digest(reply.result) != reply.result_digest:
                return
            call.results[reply.result_digest] = reply.result
        self.view_estimate = max(self.view_estimate, reply.view)
        if reply.read_only:
            # A straggling reply from an abandoned read-only attempt must
            # not vote on the ordered request now in flight under the
            # same id: it certifies a read of unordered state.
            if not call.read_only:
                return
            votes = call.ro_votes
        elif reply.tentative:
            votes = call.tentative_votes
        else:
            votes = call.votes
            call.tentative_votes.setdefault(reply.result_digest,
                                            set()).add(voter)
        votes.setdefault(reply.result_digest, set()).add(voter)
        self._check_accept()

    def _check_accept(self) -> None:
        call = self._pending
        # Read-only votes only exist while the call is still read-only —
        # the fallback clears them and handle_reply gates late arrivals.
        assert call.read_only or not call.ro_votes, \
            "stale read-only votes on an ordered request"
        # Ordered committed replies: f+1 matching.
        for rdigest, voters in call.votes.items():
            if len(voters) < self._weak_quorum:
                continue
            if rdigest in call.results:
                self._accept(rdigest, "committed", voters)
                return
            # Result certified by f+1 digests but the designated replica
            # never sent the full bytes (it may be rebooting): retransmit
            # immediately — replicas resend cached replies in full.
            if not call.nudged:
                call.nudged = True
                self._fast_retransmit()
                return
        # Commit certificate: 2f+1 matching tentative replies prove the
        # request's ordering survives any view change.
        for rdigest, voters in call.tentative_votes.items():
            if len(voters) < self._quorum:
                continue
            if rdigest in call.results:
                self._accept(rdigest, "tentative", voters)
                return
            # The certificate is complete but the designated replica's
            # full-result reply has not arrived.  Unlike the committed
            # path (where the missing replica may be gone for good), a
            # 2f+1 tentative quorum usually means the last reply is
            # simply still in flight — give it a short grace window
            # before retransmitting, so the common case costs nothing.
            if call.nudged:
                return
            if self._replicas - voters <= self._mute:
                self._on_nudge_grace()      # no second grace for the mute
            elif not self._nudge_timer.running:
                self._nudge_timer.start()
            return
        # Read-only optimization: 2f+1 matching read-only replies.
        for rdigest, voters in call.ro_votes.items():
            if len(voters) >= self._quorum and rdigest in call.results:
                self._accept(rdigest, "read_only", voters)
                return

    def _accept(self, rdigest: bytes, path: str, voters: Set[str]) -> None:
        call = self._pending
        self._pending = None
        self._mute -= voters
        self._retry_timer.stop()
        self._nudge_timer.stop()
        self._last_accept = (path, tuple(sorted(voters)))
        self.tracer.metrics.inc(f"client.accept_{path}")
        self.tracer.emit(self.now, self.node_id, "result_accepted",
                         call.request.request_id, rdigest)
        self.tracer.observe_phase("request_to_reply",
                                  self.now - call.started_at)
        call.callback(call.results[rdigest])


class SyncClient:
    """Imperative wrapper: ``call()`` drives the scheduler to completion.

    Lets workload code (Andrew, OO7) be written as straight-line Python
    while the whole replicated system advances underneath each call.
    """

    MAX_EVENTS_PER_CALL = 5_000_000  # past this the protocol is spinning

    def __init__(self, client: BftClient):
        self.client = client
        self.scheduler = client.scheduler

    def call(self, op: bytes, read_only: bool = False) -> bytes:
        box: dict = {}
        self.client.invoke(op, lambda result: box.update(result=result),
                           read_only=read_only)
        done = self.scheduler.run_until_idle_or(lambda: "result" in box,
                                                self.MAX_EVENTS_PER_CALL)
        if not done:
            raise TimeoutError(
                f"client {self.client.node_id}: no result for request "
                f"{self.client._next_request_id} (queue drained or event "
                f"budget exhausted)")
        return box["result"]

    @property
    def now(self) -> float:
        return self.scheduler.now
