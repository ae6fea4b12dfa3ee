"""Replication-group configuration and quorum arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError


LOG_WINDOW_CHECKPOINTS = 2   # L = this many intervals past the low mark


@dataclass
class BftConfig:
    """Static configuration shared by all replicas and clients of a group.

    ``n`` replicas tolerate ``f = (n - 1) // 3`` Byzantine faults; the
    paper's experiments all use ``n = 4``, ``f = 1``.  A value nobody
    varies is a constant beside its reader, not a field here.
    """

    n: int = 4
    checkpoint_interval: int = 128     # k: take a checkpoint every k requests
    batch_max: int = 16                # max requests per pre-prepare batch
    view_change_timeout: float = 5.0   # backup timer before suspecting primary
    client_retry_timeout: float = 2.0  # client retransmission timer
    read_only_optimization: bool = True
    tentative_execution: bool = True   # execute at prepared, reply tentative
    reboot_delay: float = 30.0         # simulated reboot during recovery
    recovery_interval: float = 0.0     # watchdog period; 0 disables recovery
    recovery_stagger: float = 0.0      # offset between replicas' watchdogs

    replica_ids: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigurationError(f"need n >= 4 replicas, got {self.n}")
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if not self.replica_ids:
            self.replica_ids = [f"replica{i}" for i in range(self.n)]
        if len(self.replica_ids) != self.n:
            raise ConfigurationError(
                f"{len(self.replica_ids)} replica ids for n={self.n}")

    @property
    def f(self) -> int:
        """Maximum number of simultaneous Byzantine faults tolerated."""
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        """Certificate size: 2f + 1 replicas."""
        return 2 * self.f + 1

    @property
    def weak_quorum(self) -> int:
        """f + 1 — enough to guarantee one correct replica."""
        return self.f + 1

    @property
    def log_window(self) -> int:
        """High-water mark offset: seq numbers accepted in (h, h + window]."""
        return self.checkpoint_interval * LOG_WINDOW_CHECKPOINTS

    @property
    def verified_sig_bound(self) -> int:
        """Signatures a replica remembers as checked: every replica's
        CHECKPOINT for the stable checkpoint and each one the log window
        admits, every replica's VIEW-CHANGE for f+1 pending views (enough
        to pass f faulty primaries), and the last NEW-VIEW."""
        return self.n * (LOG_WINDOW_CHECKPOINTS + 1 + self.f + 1) + 1

    def primary_of(self, view: int) -> str:
        """The primary replica for ``view`` (round-robin, as in BFT)."""
        return self.replica_ids[view % self.n]

    def replica_index(self, replica_id: str) -> int:
        return self.replica_ids.index(replica_id)
