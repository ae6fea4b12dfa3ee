"""Calibrated cost models for the evaluation.

The simulation charges time for network transmission, cryptography,
service CPU, and disk.  The constants here are calibrated so that the
*relative* results (who wins, by what factor, where the crossovers are)
match the paper's evaluation; absolute numbers live in a different
regime because the workloads are scaled down (see EXPERIMENTS.md).

Calibration anchors:

- switched 100 Mb/s Ethernet, ~100 us one-way latency;
- MACs are cheap (symmetric crypto — the optimization BFT lives on),
  signatures ~3 orders of magnitude more expensive;
- the Linux NFS server of the era replied *without* syncing (fast,
  non-compliant); Solaris/OpenBSD/FreeBSD sync — their Table V native
  runs are 2.5–4.7x slower than Linux;
- Thor server pages live on disk; cold OO7 traversals are disk-bound.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bft.costs import CostModel
from repro.nfs.backends.core import CostProfile
from repro.sim.network import LinkConfig, NetworkConfig


def lan_network(seed: int = 0) -> NetworkConfig:
    """The paper's testbed network: 100 Mb/s switched Ethernet."""
    return NetworkConfig(seed=seed, default_link=LinkConfig(
        latency=5e-5, jitter=1e-5))


#: Crypto/CPU charges for replicas and clients.
PROTOCOL_COSTS = CostModel(
    mac=8e-6,             # MD5/UMAC-era MAC on a 600 MHz Pentium III
    signature=6e-4,       # only view changes / checkpoints / recovery
    digest_fixed=2e-6,
    digest_per_byte=5e-9,
)


#: Per-vendor NFS backend cost profiles (Table V's performance spread).
#: Linux replies without stable writes — fastest and non-compliant; the
#: BSDs/Solaris pay a sync penalty per mutating operation.
VENDOR_PROFILES: Dict[str, CostProfile] = {
    "linux-ext2": CostProfile(per_op=1.2e-4, per_read_byte=1e-8,
                              per_write_byte=8e-9, per_meta_op=1.5e-3,
                              sync_extra=0.0),
    "freebsd-ufs": CostProfile(per_op=1.5e-4, per_read_byte=5e-9,
                               per_write_byte=9e-9, per_meta_op=7e-4,
                               sync_extra=4.7e-3),
    "solaris-ufs": CostProfile(per_op=1.5e-4, per_read_byte=5e-9,
                               per_write_byte=9e-9, per_meta_op=7e-4,
                               sync_extra=6.2e-3),
    "openbsd-ffs": CostProfile(per_op=2.0e-4, per_read_byte=7e-9,
                               per_write_byte=1.2e-8, per_meta_op=9e-4,
                               sync_extra=1.12e-2),
}


def vendor_profile(vendor: str) -> CostProfile:
    import dataclasses
    return dataclasses.replace(VENDOR_PROFILES[vendor])


#: get_obj+digest during the recovery check phase: *cold* concrete state,
#: per KB of abstract object (drives Table IV's fetch-and-check growth).
PER_OBJECT_CHECK_COST = 1.2e-4

#: get_obj+digest at checkpoint time: just-written, hot state; per KB.
CHECKPOINT_COST = 4e-5

#: Thor server disk: ~5 ms seek + transfer (cold OO7 is disk-bound).
THOR_DISK_SEEK = 1.8e-3
THOR_DISK_BYTE = 2e-8

#: Unreplicated Thor per-request CPU.
THOR_OP_COST = 1e-4

#: Per-request CPU on the replicated path: the server work plus the
#: conformance wrapper's translation (oid maps, modify() bookkeeping).
BASE_THOR_OP_COST = 3.5e-4

#: Per-KB processing of committed object values on the replicated path
#: (validation + MOB + checkpoint maintenance — dominates T2b commits).
THOR_COMMIT_BYTE_COST = 1e-4


def replica_costs() -> List[CostModel]:
    return [PROTOCOL_COSTS] * 4
