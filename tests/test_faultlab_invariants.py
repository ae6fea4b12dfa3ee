"""Invariant checkers against synthetic ring histories, plus the
end-to-end regression: a beyond-f colluding pair must be caught."""

import pytest

from repro.bft.config import BftConfig
from repro.faultlab.explorer import run_trial
from repro.faultlab.invariants import (
    Violation,
    check_agreement,
    check_liveness,
    check_reply_validity,
)
from repro.sim.tracing import TraceEvent

CORRECT = ("replica0", "replica1", "replica2")


def event(source, kind, *fields, at=0.0):
    """One ring event as the tracer decodes it, ``(time, source, kind,
    *fields)`` (fields in ``tracing.CATALOGUE`` order)."""
    return TraceEvent((at, source, kind) + fields)


def entry(replica, seq, rid, digest, client="c0", read_only=False):
    if read_only:
        return event(replica, "read_only_executed", seq, client, rid, digest)
    return event(replica, "executed", seq, client, rid, False, digest)


def accepted(rid, digest, at):
    return event("c0", "result_accepted", rid, digest, at=at)


def test_agreement_accepts_identical_histories():
    log = [e for r in CORRECT
           for e in (entry(r, 1, 1, b"a"), entry(r, 2, 2, b"b"))]
    assert check_agreement(log, CORRECT) == []


def test_agreement_catches_divergent_digest_at_a_seq():
    log = [entry("replica0", 1, 1, b"a"), entry("replica1", 1, 1, b"a"),
           entry("replica2", 1, 1, b"X")]
    violations = check_agreement(log, CORRECT)
    assert len(violations) == 1
    assert violations[0].invariant == "agreement"
    assert "seq 1 diverged" in violations[0].detail


def test_agreement_compares_whole_batches_at_one_seq():
    # One pre-prepare batch = several executions at the same seq; same
    # ordered batch everywhere is agreement, a reordered batch is not.
    def batch(r):
        return [entry(r, 1, 1, b"a"), entry(r, 1, 2, b"b", client="c1")]
    log = [e for r in CORRECT for e in batch(r)]
    assert check_agreement(log, CORRECT) == []
    log = [e for r in CORRECT
           for e in (batch(r)[::-1] if r == "replica1" else batch(r))]
    violations = check_agreement(log, CORRECT)
    assert len(violations) == 1 and "seq 1 diverged" in violations[0].detail


def test_agreement_allows_reexecution_after_rollback():
    # replica2 state-transferred back to seq 1 and legitimately re-ran
    # seq 2; without the marker the same trace is an ordering violation.
    log = [e for r in CORRECT
           for e in (entry(r, 1, 1, b"a"), entry(r, 2, 2, b"b"))]
    log += [event("replica2", "transfer_complete", 1, 0),
            entry("replica2", 2, 2, b"b")]
    assert check_agreement(log, CORRECT) == []

    # The same rewind without the marker is an ordering violation.
    log[-2] = entry("replica2", 1, 1, b"a")
    del log[-1]
    violations = check_agreement(log, CORRECT)
    assert any("out of order" in v.detail for v in violations)


def test_agreement_ignores_read_only_and_byzantine_entries():
    log = [entry(r, 1, 1, b"a") for r in CORRECT]
    log.append(entry("replica0", 1, 3, b"r", read_only=True))
    log.append(entry("replica3", 1, 1, b"LIE"))  # not in correct_ids
    assert check_agreement(log, CORRECT) == []


def test_reply_validity_accepts_backed_replies():
    log = [entry("replica0", 1, 1, b"a"), entry("replica1", 1, 1, b"a"),
           accepted(1, b"a", at=0.5)]
    assert check_reply_validity(log, CORRECT) == []


def test_reply_validity_catches_unbacked_digest_and_unknown_request():
    log = [entry("replica0", 1, 1, b"a"), accepted(1, b"FORGED", at=0.5),
           accepted(99, b"a", at=0.6)]
    violations = check_reply_validity(log, CORRECT)
    assert [v.invariant for v in violations] == ["reply_validity"] * 2
    assert "correct replicas computed" in violations[0].detail
    assert "no correct replica executed" in violations[1].detail


def test_liveness_flags_stuck_clients_only_when_expected():
    done = [("c0", True), ("c1", False)]
    violations = check_liveness(done, expect_liveness=True, duration=40.0)
    assert len(violations) == 1 and "c1" in violations[0].detail
    assert check_liveness(done, expect_liveness=False, duration=40.0) == []
    assert check_liveness([("c0", True)], True, 40.0) == []


def test_bounded_wait_counts_from_the_last_fault_or_the_issue():
    from repro.faultlab.invariants import check_bounded_wait
    calls = [("c0", 0.0, 5.0),      # outstanding across the faults: 2.0 s
             ("c0", 5.0, 5.1),
             ("c1", 6.0, 8.6),      # issued after them: 2.6 s
             ("c1", 8.6, None),     # never accepted: waited until now
             ("c2", 0.0, 2.9)]      # done before the faults ended
    assert check_bounded_wait(calls, 3.0, 2.5, now=10.0) == [
        Violation("liveness", "client c1 waited 2.600s for a request issued "
                              "at 6.000s; the bound after the last fault "
                              "ended at 3.000s is 2.500s")]
    assert [v.detail.split()[1] for v in check_bounded_wait(
        calls, 3.0, 1.0, now=10.0)] == ["c0", "c1"]


def test_bounded_wait_catches_a_new_view_timer_armed_before_2f_plus_1(
        monkeypatch):
    """The mutant: the old timer, armed with backoff the moment a replica
    asks for a view, so replicas that cannot form 2f+1 climb views alone.
    Plan: the view-0 primary crashes for good while a backup is cut off
    alone; no three replicas can talk, and each live one climbs.  At the
    heal all three sit at view 5 with a 3.2 s timer, so the clients wait
    3.4 s against a 2.4 s bound.  The shipped timer keeps them at view 1
    retransmitting, and the heal completes that view change."""
    from repro.bft.viewchange import ViewChangeManager
    from repro.faultlab.invariants import liveness_bound
    from repro.faultlab.plan import CrashFault, FaultPlan, PartitionFault
    from repro.faultlab.scenarios import Scenario
    plan = FaultPlan((PartitionFault((3,), start=0.002, stop=4.0),
                      CrashFault(0, start=0.003)))
    scenario = Scenario(
        name="lone_partition", description="", plan=lambda rng: plan,
        config=dict(checkpoint_interval=4, view_change_timeout=0.2,
                    client_retry_timeout=0.1))
    result = run_trial(scenario, 0)
    assert result.ok, result.violations
    assert round(liveness_bound(BftConfig(**scenario.config)), 9) == 2.4

    def arm_at_once(self):
        r = self.replica
        self._nv_timer.restart(r.config.view_change_timeout * 2 ** min(
            16, max(0, self.target_view - r.view - 1)))

    def climb(self):
        if self.active:
            self.start(self.target_view + 1)

    monkeypatch.setattr(ViewChangeManager, "_arm", arm_at_once)
    monkeypatch.setattr(ViewChangeManager, "_on_new_view_timeout", climb)
    result = run_trial(scenario, 0)
    assert [v.invariant for v in result.violations] == ["liveness"] * 2
    assert "waited 3.405s" in result.violations[0].detail


def test_beyond_f_collusion_is_caught_by_reply_validity():
    """ACCEPTANCE: two colluding wrong-reply replicas out-vote f=1 — the
    client accepts a fabricated result and the checker must say so."""
    result = run_trial("beyond_f_wrong_reply", 0)
    assert not result.ok
    kinds = {v.invariant for v in result.violations}
    assert kinds & {"reply_validity", "agreement"}, result.violations


# -- the edge staleness contract ---------------------------------------------------


def _edge_reply(mode, bound, served_at, evidence):
    return event("edge0", "edge_reply", 0, mode, bound, b"res", evidence,
                 at=served_at)


def _cert_evidence(issued_at):
    from repro.edge.evidence import EVIDENCE_CERTIFICATE, StalenessEvidence
    return StalenessEvidence(kind=EVIDENCE_CERTIFICATE,
                             issued_at_us=int(issued_at * 1_000_000),
                             replicas=("replica0", "replica1", "replica2"))


def _vector_evidence(issued_at, seq=8, root=b"root8"):
    from repro.edge.evidence import EVIDENCE_VECTOR, StalenessEvidence
    return StalenessEvidence(kind=EVIDENCE_VECTOR,
                             issued_at_us=int(issued_at * 1_000_000),
                             replicas=("replica1",), checkpoint_seq=seq,
                             root_digest=root,
                             stable_at_us=int(issued_at * 1_000_000))


_HISTORIES = {r: [(0, b"root0"), (4, b"root4"), (8, b"root8")]
              for r in CORRECT}


def test_staleness_contract_accepts_a_clean_ladder():
    from repro.faultlab.invariants import check_staleness_contract
    replies = [
        _edge_reply("linearizable", None, 1.0, _cert_evidence(1.0)),
        _edge_reply("bounded_stale", 0.5, 1.4, _vector_evidence(1.0)),
        _edge_reply("last_known_good", None, 9.0, _vector_evidence(1.0)),
    ]
    assert check_staleness_contract(
        replies, _HISTORIES, breaker_states=[(0, "closed")],
        expect_repromotion=True) == []


def test_staleness_contract_rejects_masquerading_linearizable():
    from repro.faultlab.invariants import check_staleness_contract
    replies = [_edge_reply("linearizable", None, 1.0, _vector_evidence(1.0))]
    violations = check_staleness_contract(replies, _HISTORIES)
    assert len(violations) == 1
    assert "claims linearizable" in violations[0].detail


def test_staleness_contract_rejects_bound_overrun():
    from repro.faultlab.invariants import check_staleness_contract
    replies = [_edge_reply("bounded_stale", 0.5, 2.0, _vector_evidence(1.0))]
    violations = check_staleness_contract(replies, _HISTORIES)
    assert len(violations) == 1
    assert "exceeds its advertised bound" in violations[0].detail


def test_staleness_contract_rejects_fabricated_vector():
    from repro.faultlab.invariants import check_staleness_contract
    replies = [_edge_reply("bounded_stale", 0.5, 1.2,
                            _vector_evidence(1.0, seq=99, root=b"forged"))]
    violations = check_staleness_contract(replies, _HISTORIES)
    assert len(violations) == 1
    assert "matches no correct replica" in violations[0].detail


def test_staleness_contract_requires_evidence_and_repromotion():
    from repro.faultlab.invariants import check_staleness_contract
    replies = [_edge_reply("bounded_stale", 0.5, 1.2, None)]
    violations = check_staleness_contract(
        replies, _HISTORIES, breaker_states=[(0, "open")],
        expect_repromotion=True)
    assert len(violations) == 2
    assert "no staleness evidence" in violations[0].detail
    assert "expected re-promotion" in violations[1].detail


@pytest.mark.parametrize("reply, detail", [
    (_edge_reply("eventual", None, 1.0, _cert_evidence(1.0)),
     "served under unknown mode 'eventual'"),
    (_edge_reply("linearizable", 0.5, 1.0, _cert_evidence(1.0)),
     "linearizable reply advertises a staleness bound"),
    (_edge_reply("bounded_stale", None, 1.2, _vector_evidence(1.0)),
     "bounded-stale reply advertises no bound"),
    (_edge_reply("last_known_good", 0.5, 9.0, _vector_evidence(1.0)),
     "last-known-good reply advertises a bound"),
], ids=["unknown-mode", "linearizable-with-bound", "bounded-without-bound",
        "last-known-good-with-bound"])
def test_staleness_contract_rejects_each_malformed_claim(reply, detail):
    from repro.faultlab.invariants import check_staleness_contract
    violations = check_staleness_contract([reply], _HISTORIES)
    assert [v.invariant for v in violations] == ["staleness_contract"]
    assert detail in violations[0].detail


# -- convergence: positive controls on a settled kv group --------------------------


def _settled_kv_group():
    from repro.bft.statemachine import InMemoryStateManager
    from tests.conftest import make_kv_cluster
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    for i in range(6):
        client.call(InMemoryStateManager.op_put(i, b"v%d" % i))
    cluster.run(1.0)
    return cluster, [r.node_id for r in cluster.replicas]


def test_convergence_holds_on_a_settled_group():
    from repro.faultlab.invariants import check_convergence
    cluster, correct = _settled_kv_group()
    assert check_convergence(cluster, correct, expect_liveness=True) == []


def test_convergence_catches_a_diverged_replica_state():
    from repro.bft.statemachine import InMemoryStateManager
    from repro.faultlab.invariants import check_convergence
    cluster, correct = _settled_kv_group()
    victim = cluster.replicas[2]
    victim.state.execute(InMemoryStateManager.op_put(0, b"corrupt"),
                         "nobody", 0, victim.last_executed, b"")
    violations = check_convergence(cluster, correct, expect_liveness=True)
    assert [v.invariant for v in violations] == ["convergence"]
    assert "abstract state roots diverged" in violations[0].detail
    assert "replica2=" in violations[0].detail


def test_convergence_catches_a_replica_left_mid_recovery():
    from repro.faultlab.invariants import check_convergence
    cluster, correct = _settled_kv_group()
    cluster.replicas[1].recovery.recovering = True
    violations = check_convergence(cluster, correct, expect_liveness=True)
    assert [v.detail for v in violations] == [
        "replica1 still mid-recovery after the settle phase"]


def test_convergence_catches_too_few_replicas_at_the_frontier():
    from repro.faultlab.invariants import check_convergence
    cluster, correct = _settled_kv_group()
    frontier = cluster.replicas[0].last_executed
    for replica in cluster.replicas[1:]:
        replica.last_executed = frontier - 1
    violations = check_convergence(cluster, correct, expect_liveness=True)
    assert [v.detail for v in violations] == [
        f"only 1 correct replicas reached the execution frontier (seq "
        f"{frontier}); need at least {cluster.config.weak_quorum}"]
