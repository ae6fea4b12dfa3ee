"""Safety/liveness invariant checkers run against every FaultLab trial.

After the run the trial runner decodes the event ring the product fills
once and hands its events, oldest first, plus the settled cluster, to
the checkers.  They select the records they judge by kind and source
(``executed``, ``read_only_executed``, ``rollback``,
``transfer_complete`` and ``result_accepted``, see
docs/OBSERVABILITY.md): every execution at every replica, every
checkpoint a replica restored, and every reply a client accepted.

- **agreement** — all correct replicas' committed op sequences are
  prefixes of one another: any sequence number executed by two correct
  replicas carries the same request and produced the same result;
- **reply validity** — the client's f+1 vote only certifies results a
  correct replica actually computed; every accepted reply must match the
  result recorded by at least one correct replica for that request (with
  agreement, that makes all f+1 matching correct replies identical);
- **convergence** — after faults quiesce and state transfer settles, the
  correct replicas at the execution frontier expose identical abstract
  state roots, and every triggered proactive recovery completed;
- **liveness** — under a quiescent plan (all faults within f, network
  healed), every client workload ran to completion within the trial's
  simulated-time budget, and once the plan's last fault ended every
  request was accepted within :func:`liveness_bound` of the config.

Checkers return :class:`Violation` lists with deterministic detail
strings, so a replay of the same (scenario, seed) yields bit-identical
violations — the property the shrinker and ``run --plan`` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bft.client import RETRY_BACKOFF_MAX
from repro.edge.evidence import (BOUNDED_STALE, EVIDENCE_CERTIFICATE,
                                 EVIDENCE_VECTOR, LINEARIZABLE, MODES)
from repro.sim.tracing import TraceEvent


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with a replay-stable description."""

    invariant: str
    detail: str

    @property
    def key(self) -> Tuple[str, str]:
        return (self.invariant, self.detail)

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


#: A rollback in place or a completed state transfer: the replica
#: restored checkpoint ``seq`` (the kind's first field), so executions
#: beyond it are discarded and will be re-run (the normal recovery path)
#: and re-execution after one supersedes instead of conflicting.
RESTORES = ("rollback", "transfer_complete")
#: Both execution kinds, read by position (tracing.CATALOGUE): an
#: event is ``(time, source, kind, seq, client, request_id, ...,
#: result)``.  A replica's ``result`` is the digest it *sent*, so a
#: lying replica's is its lie; only correct replicas' are read.
EXECUTIONS = ("executed", "read_only_executed")


def check_agreement(events: Sequence[TraceEvent],
                    correct_ids: Sequence[str]) -> List[Violation]:
    """Committed op sequences of correct replicas agree point-wise (and
    hence are prefixes of one another, since each replica executes its
    ordered batches in increasing seq order).  One sequence number covers
    a whole pre-prepare batch, so the unit of comparison is the ordered
    tuple of (client, request, result) executions at that seq."""
    violations: List[Violation] = []
    Ident = Tuple[Tuple[str, int, bytes], ...]
    # seq -> {ordered batch identity -> [replica ids]}
    by_seq: Dict[int, Dict[Ident, List[str]]] = {}
    history = [e for e in events if e.kind == "executed"
               or e.kind in RESTORES]
    for replica_id in sorted(correct_ids):
        last_seq = 0
        open_seq = None  # the batch currently being appended to
        batches: Dict[int, List[Tuple[str, int, bytes]]] = {}
        for e in history:
            if e.source != replica_id:
                continue
            seq = e[3]
            if e.kind in RESTORES:
                # Checkpoint restored at seq: later executions are gone
                # and will be legitimately re-run.
                for later in [s for s in batches if s > seq]:
                    del batches[later]
                last_seq = seq
                open_seq = None
                continue
            if seq < last_seq:
                violations.append(Violation(
                    "agreement",
                    f"{replica_id} executed seq {seq} out of order "
                    f"(after seq {last_seq})"))
            if seq != open_seq:
                batches[seq] = []  # a fresh batch supersedes any re-run
                open_seq = seq
            last_seq = max(last_seq, seq)
            batches[seq].append((e[4], e[5], e[-1]))
        for seq, batch in batches.items():
            by_seq.setdefault(seq, {}).setdefault(tuple(batch), []).append(
                replica_id)
    for seq in sorted(by_seq):
        idents = by_seq[seq]
        if len(idents) <= 1:
            continue
        parts = []
        for batch, replicas in sorted(
                idents.items(),
                key=lambda kv: [(c, r, d.hex()) for c, r, d in kv[0]]):
            ops = ";".join(f"({client},{request_id},{rdigest.hex()[:12]})"
                           for client, request_id, rdigest in batch)
            parts.append(f"{'+'.join(sorted(replicas))}=[{ops}]")
        violations.append(Violation(
            "agreement", f"seq {seq} diverged across correct replicas: "
                         + " vs ".join(parts)))
    return violations


def check_reply_validity(events: Sequence[TraceEvent],
                         correct_ids: Sequence[str]) -> List[Violation]:
    """Every client-accepted reply is backed by a correct replica's
    computation of that very request."""
    violations: List[Violation] = []
    computed: Dict[Tuple[str, int], Set[bytes]] = {}
    for e in events:
        if e.kind in EXECUTIONS and e.source in correct_ids:
            computed.setdefault((e[4], e[5]), set()).add(e[-1])
    for e in events:
        if e.kind != "result_accepted":
            continue
        _, client_id, _, request_id, result = e
        digests = computed.get((client_id, request_id))
        if digests is None:
            violations.append(Violation(
                "reply_validity",
                f"client {client_id} accepted a reply for request "
                f"{request_id} that no correct replica executed"))
        elif result not in digests:
            violations.append(Violation(
                "reply_validity",
                f"client {client_id} accepted result "
                f"{result.hex()[:12]} for request "
                f"{request_id}, but correct replicas computed "
                f"{sorted(d.hex()[:12] for d in digests)}"))
    return violations


def check_convergence(cluster, correct_ids: Sequence[str],
                      expect_liveness: bool) -> List[Violation]:
    """After quiesce + settle: correct replicas at the execution frontier
    share one abstract state root; triggered recoveries completed."""
    violations: List[Violation] = []
    live = [r for r in cluster.replicas
            if r.node_id in correct_ids and not r.crashed
            and not r.recovery.recovering and not r.transfer.active]
    for r in cluster.replicas:
        if r.node_id not in correct_ids:
            continue
        if r.recovery.recovering and expect_liveness:
            violations.append(Violation(
                "convergence",
                f"{r.node_id} still mid-recovery after the settle phase"))
    if not live:
        return violations
    frontier = max(r.last_executed for r in live)
    at_frontier = [r for r in live if r.last_executed == frontier]
    if expect_liveness and len(at_frontier) < cluster.config.weak_quorum:
        violations.append(Violation(
            "convergence",
            f"only {len(at_frontier)} correct replicas reached the "
            f"execution frontier (seq {frontier}); need at least "
            f"{cluster.config.weak_quorum}"))
    roots = {}
    for r in at_frontier:
        r.state.refresh_dirty()
        roots.setdefault(r.state.tree.root_digest, []).append(r.node_id)
    if len(roots) > 1:
        parts = [f"{'+'.join(sorted(ids))}={root.hex()[:12]}"
                 for root, ids in sorted(roots.items(),
                                         key=lambda kv: kv[0].hex())]
        violations.append(Violation(
            "convergence",
            f"abstract state roots diverged at frontier seq {frontier}: "
            + " vs ".join(parts)))
    return violations


def check_liveness(scripts_done: Sequence[Tuple[str, bool]],
                   expect_liveness: bool,
                   duration: float) -> List[Violation]:
    """Bounded progress: a quiescent-fault trial must finish its workload
    inside the simulated-time budget."""
    if not expect_liveness:
        return []
    stuck = sorted(client_id for client_id, done in scripts_done if not done)
    if not stuck:
        return []
    return [Violation(
        "liveness",
        f"clients {stuck} did not finish their workload within "
        f"{duration:g} simulated seconds despite a quiescent fault plan")]


def liveness_bound(config) -> float:
    """How long a correct client may wait for a request once a plan's
    last fault has ended: its longest retry backoff, then a view change
    past f faulty primaries (a backup's timer, then f+1 new-view timers,
    each twice the last)."""
    return (config.client_retry_timeout * RETRY_BACKOFF_MAX
            + config.view_change_timeout * 2 ** (config.f + 1))


def check_bounded_wait(calls: Sequence[Tuple[str, float, Optional[float]]],
                       settled_at: float, bound: float,
                       now: float) -> List[Violation]:
    """Liveness with a clock: each request a client had outstanding when
    the last fault ended (``settled_at``), or issued later, is accepted
    within ``bound`` of that moment or of its issue.  ``calls`` are
    ``(client, issued at, accepted at or None)``; one never accepted
    has waited until ``now``.  One violation per late client."""
    late: Dict[str, Tuple[float, float]] = {}
    for client_id, issued, accepted in calls:
        waited = (now if accepted is None else accepted) - max(issued,
                                                               settled_at)
        if waited > bound and client_id not in late:
            late[client_id] = (issued, waited)
    return [Violation(
        "liveness",
        f"client {client_id} waited {waited:.3f}s for a request issued at "
        f"{issued:.3f}s; the bound after the last fault ended at "
        f"{settled_at:.3f}s is {bound:.3f}s")
        for client_id, (issued, waited) in sorted(late.items())]


def check_staleness_contract(
        replies: Sequence,
        histories: Dict[str, Sequence[Tuple[int, bytes]]],
        breaker_states: Sequence[Tuple[int, str]] = (),
        expect_repromotion: bool = False) -> List[Violation]:
    """The edge tier's advertised staleness contract, audited against the
    abstract-state history correct replicas actually passed through:

    - every reply names a known consistency mode, and a linearizable
      claim is only ever backed by quorum (read-certificate) evidence —
      a degraded reply can never masquerade as fresh;
    - a bounded-stale reply's *actual* staleness (serve time minus the
      time its evidence proves the result was current) never exceeds
      its advertised bound;
    - version-vector evidence anchors at a ``(seq, digest)`` checkpoint
      some correct replica genuinely recorded;
    - after the plan quiesces, every shard's breaker re-promoted to the
      top of the ladder (when the trial expects liveness).

    ``replies`` are the tier's ``edge_reply`` events
    (docs/OBSERVABILITY.md); ``histories`` maps correct replica ids to
    their retained ``checkpoint_history``; ``breaker_states`` is the final
    ``(shard, breaker state)`` per shard.
    """
    violations: List[Violation] = []
    known: Set[Tuple[int, bytes]] = set()
    for replica_id in sorted(histories):
        known.update(histories[replica_id])
    for i, reply in enumerate(replies):
        tag = f"read[{i}]"
        _, _, _, _, mode, bound, _, ev = reply
        if mode not in MODES:
            violations.append(Violation(
                "staleness_contract",
                f"{tag} served under unknown mode {mode!r}"))
            continue
        if ev is None:
            violations.append(Violation(
                "staleness_contract",
                f"{tag} ({mode}) carries no staleness evidence"))
            continue
        if mode == LINEARIZABLE:
            if ev.kind != EVIDENCE_CERTIFICATE:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} claims linearizable but is backed by "
                    f"{ev.kind} evidence from {list(ev.replicas)}"))
            if bound is not None:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} linearizable reply advertises a staleness "
                    f"bound ({bound:g}s)"))
        elif mode == BOUNDED_STALE:
            if bound is None:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} bounded-stale reply advertises no bound"))
            else:
                actual = reply.time - ev.issued_at
                # 1e-9: float slack on a difference of sim seconds
                if actual > bound + 1e-9:
                    violations.append(Violation(
                        "staleness_contract",
                        f"{tag} actual staleness {actual:.6f}s exceeds "
                        f"its advertised bound {bound:g}s"))
        else:  # LAST_KNOWN_GOOD claims nothing but the flag itself
            if bound is not None:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} last-known-good reply advertises a bound "
                    f"({bound:g}s) it cannot honor"))
        if ev.kind == EVIDENCE_VECTOR:
            vector = (ev.checkpoint_seq, ev.root_digest)
            if ev.checkpoint_seq is None or vector not in known:
                root = (ev.root_digest or b"").hex()[:12]
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} version vector (seq {ev.checkpoint_seq}, "
                    f"root {root}) matches no correct replica's "
                    f"checkpoint history"))
    if expect_repromotion:
        for shard, state in breaker_states:
            if state != "closed":
                violations.append(Violation(
                    "staleness_contract",
                    f"shard {shard} breaker ended {state}; expected "
                    f"re-promotion to linearizable after the plan "
                    f"quiesced"))
    return violations


def check_all(cluster, events: Sequence[TraceEvent],
              correct_ids: Sequence[str],
              scripts_done: Sequence[Tuple[str, bool]],
              expect_liveness: bool, duration: float) -> List[Violation]:
    """Run the full suite in its canonical order."""
    violations = []
    violations += check_agreement(events, correct_ids)
    violations += check_reply_validity(events, correct_ids)
    violations += check_convergence(cluster, correct_ids, expect_liveness)
    violations += check_liveness(scripts_done, expect_liveness, duration)
    return violations
