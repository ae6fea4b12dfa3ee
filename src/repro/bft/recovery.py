"""Proactive recovery: periodic software rejuvenation of replicas.

A watchdog fires at each replica on a staggered schedule (so the group
stays available while one member is down).  The replica then:

1. **shutdown** — persists what the service needs to survive a reboot
   (the conformance representation, in BASE terms);
2. **reboot** — a fixed simulated delay (the paper simulated reboots by
   sleeping 30 s);
3. **restart** — reloads the saved representation, refreshes its session
   keys (so stolen keys become useless), and marks its whole abstract
   state dirty;
4. **fetch and check** — solicits stable checkpoint certificates from the
   other replicas and runs hierarchical state transfer, which recomputes
   and checks the digest of every abstract object and fetches only the
   corrupt or out-of-date ones.

Durations of the four phases are recorded per recovery — Table IV of the
paper reports exactly this breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bft.messages import RecoveryRequest


@dataclass
class RecoveryRecord:
    """Timing breakdown of one recovery (Table IV rows)."""

    replica_id: str
    started_at: float
    shutdown: float = 0.0
    reboot: float = 0.0
    restart: float = 0.0
    fetch_and_check: float = 0.0
    completed_at: float = 0.0
    objects_fetched: int = 0

    @property
    def total(self) -> float:
        return self.shutdown + self.reboot + self.restart + self.fetch_and_check


class RecoveryManager:
    """Watchdog-driven proactive recovery for one replica."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.recovering = False
        #: True only during shutdown+reboot: the replica is completely
        #: offline.  During fetch-and-check it participates in agreement
        #: again (the paper: only execution waits for the state check).
        self.rebooting = False
        self.epoch = 0
        self.records: List[RecoveryRecord] = []
        self._current: Optional[RecoveryRecord] = None
        self._fetch_started_at = 0.0
        self._empty_cert_replies: set = set()
        #: CPU consumed by the state *check* (get_obj + digest of every
        #: abstract object).  Runs interleaved with fetch round-trips
        #: (paper: "checks are performed while waiting for replies"), so
        #: it extends the fetch-and-check phase instead of stalling the
        #: replica's protocol processing.
        self.background_cpu = 0.0
        config = replica.config
        self._watchdog = replica.make_timer(config.recovery_interval or 1.0,
                                            self.start_recovery)
        if config.recovery_interval > 0:
            # Stagger in *reverse* index order: primaries rotate forward
            # through views, so recovering backwards avoids the resonance
            # where every view's new primary is the next replica to reboot.
            index = config.n - 1 - config.replica_index(replica.node_id)
            first = config.recovery_interval + index * config.recovery_stagger
            replica.after(first, self.start_recovery)

    def charge_check(self, seconds: float) -> None:
        """CPU of the state check: overlapped with the fetch while
        recovering (:attr:`background_cpu`), else the replica's own."""
        if self.recovering:
            self.background_cpu += seconds
        else:
            self.replica.charge(seconds)

    # -- the recovery sequence ---------------------------------------------------

    def start_recovery(self) -> None:
        """Begin rejuvenation now (also callable directly by tests)."""
        r = self.replica
        if self.recovering or r.crashed:
            self._rearm()
            return
        self.recovering = True
        self.rebooting = True
        self.epoch += 1
        self._current = RecoveryRecord(r.node_id, r.now)
        r.trace("recovery_started", self.epoch)
        r.vc_timer.stop()
        r.waiting.clear()

        shutdown_time = r.state.shutdown()
        self._current.shutdown = shutdown_time
        self._current.reboot = r.config.reboot_delay
        r.after(shutdown_time + r.config.reboot_delay, self._after_reboot)

    def _after_reboot(self) -> None:
        r = self.replica
        # Fresh session keys: MACs computed with keys stolen before the
        # reboot no longer verify at this replica.
        r.registry.refresh_session_keys(r.node_id)
        # Memory is untrusted after a compromise: no signature counts as
        # checked until it is checked again.
        r.verified_sigs.clear()
        restart_time = r.state.restart()
        self._current.restart = restart_time
        r.state.mark_all_dirty()
        r.after(restart_time, self._begin_fetch_and_check)

    def _begin_fetch_and_check(self) -> None:
        r = self.replica
        self.rebooting = False
        self._fetch_started_at = r.now
        self.background_cpu = 0.0
        self._empty_cert_replies.clear()
        r.trace("recovery_fetching", self.epoch)
        req = RecoveryRequest(r.node_id, self.epoch)
        r.sign_msg(req)
        r.multicast(r.other_replicas, req)
        r.transfer.completion_callbacks.append(self._on_transfer_complete)
        r.transfer.solicit_certs()

    def note_empty_cert(self, src: str) -> None:
        """A peer had no stable checkpoint yet (we recovered at seq 0)."""
        r = self.replica
        if not self.recovering:
            return
        self._empty_cert_replies.add(src)
        # f+1 empty replies guarantee one correct replica reports no
        # stable checkpoint yet (demanding 2f+1 would deadlock recovery
        # when another replica is crashed).
        if (len(self._empty_cert_replies) >= r.config.weak_quorum
                and not r.transfer.active):
            # Everyone is still at the initial state; verify ours in place.
            r.state.refresh_dirty()
            self._finish_after_checks()

    def _on_transfer_complete(self, seq: int) -> None:
        if self.recovering:
            self._finish_after_checks()

    def _finish_after_checks(self) -> None:
        """Complete once the background check CPU — overlapped with the
        fetch round-trips — has also elapsed."""
        r = self.replica
        elapsed = r.now - self._fetch_started_at
        remaining = max(0.0, self.background_cpu - elapsed)
        if remaining > 0:
            r.after(remaining, self._finish,
                    r.transfer.objects_fetched_total)
        else:
            self._finish(r.transfer.objects_fetched_total)

    def _finish(self, objects_total: int) -> None:
        r = self.replica
        rec = self._current
        rec.fetch_and_check = r.now - self._fetch_started_at
        rec.completed_at = r.now
        rec.objects_fetched = objects_total
        self.records.append(rec)
        self._current = None
        self.recovering = False
        r.trace("recovery_complete", self.epoch, rec.total)
        # Table-IV breakdown, one observation per phase per recovery.
        metrics = r.tracer.metrics
        metrics.observe("recovery.shutdown", rec.shutdown)
        metrics.observe("recovery.reboot", rec.reboot)
        metrics.observe("recovery.restart", rec.restart)
        metrics.observe("recovery.fetch_and_check", rec.fetch_and_check)
        metrics.observe("recovery.total", rec.total)
        metrics.inc("recovery.completed")
        self._rearm()
        r.try_execute()

    def _rearm(self) -> None:
        if self.replica.config.recovery_interval > 0:
            interval = self.replica.config.recovery_interval
            stagger_span = self.replica.config.recovery_stagger * \
                self.replica.config.n
            self._watchdog.restart(max(interval, stagger_span))

    # -- serving side ---------------------------------------------------------------

    def on_recovery_request(self, src, msg: RecoveryRequest) -> None:
        """A peer announced recovery: reply with our stable checkpoint cert
        (the transfer manager handles the actual FETCH-CERT exchange, so
        here we simply note the event for diagnostics)."""
        self.replica.trace("peer_recovering", src, msg.epoch)
