"""The FaultLab scenario registry.

A :class:`Scenario` bundles everything one seeded trial needs: how to
configure the cluster, a workload (a generator of operations per
client), and a ``plan`` callable that draws a randomized — but fully
seed-determined — :class:`~repro.faultlab.plan.FaultPlan` from the
trial's RNG.  The sweep iterates every registered scenario with
``in_sweep=True``; regression scenarios (deliberately beyond-f, expected
to violate invariants) register with ``in_sweep=False`` so the smoke
sweep stays green while tests can still reach them by name.

Every random draw comes from the ``random.Random`` handed in, which the
explorer seeds from ``f"{scenario}:{seed}:plan"`` — string seeding is
stable across processes, so a replayed trial rebuilds the identical
plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.faultlab.plan import (
    BackendFault,
    CrashFault,
    DelaySpikeFault,
    EdgePartitionFault,
    FaultPlan,
    LossFault,
    PartitionFault,
    RecoveryFault,
    ReplicaFault,
)


@dataclass(frozen=True)
class Issue:
    """One operation a workload generator yields to its client."""

    op: bytes
    read_only: bool = False


#: A workload is a factory of per-client generators: it receives the
#: trial context and a client index and yields :class:`Issue` items,
#: receiving each accepted result back through ``send``.
Workload = Callable[[Any, int], Iterator[Issue]]

#: A probe maps (trial context, round k) to one harmless mutating op.
#: The trial runner commits a burst of these after faults quiesce:
#: fresh traffic is the protocol's only anti-entropy, so committing past
#: a checkpoint boundary is what drags laggards through state transfer
#: before convergence is judged.
Probe = Callable[[Any, int], Issue]


#: Slots of every scenario's abstract state: the kv store's array, the
#: NFS spec's array, and the open-loop key space.
STATE_SIZE = 32


@dataclass
class Scenario:
    """One registered fault-exploration scenario."""

    name: str
    description: str
    plan: Callable[[random.Random], FaultPlan]
    config: Dict[str, Any] = field(default_factory=dict)
    service: str = "kv"
    workload: Optional[Workload] = None
    probe: Optional[Probe] = None
    n_clients: int = 2
    ops_per_client: int = 8
    duration: float = 40.0     # simulated-seconds budget for the chaos phase
    settle: float = 10.0       # simulated seconds of fault-free settling
    expect_liveness: bool = True
    in_sweep: bool = True
    #: >1 builds a ShardedDeployment of ``service``: the fault plan is
    #: injected into shard 0 only, co-tenant shards carry their own
    #: workload, and the trial additionally checks shard isolation (see
    #: the sharded checks in :mod:`repro.faultlab.explorer`).
    shards: int = 1
    #: Optional open-loop traffic riding alongside the closed-loop
    #: clients (see :mod:`repro.workloads.openloop`).  Keys: ``rate``,
    #: ``duration`` and ``slo_p95`` (all three required), ``process``
    #: (poisson|onoff), ``pool_size``, ``queue_limit``,
    #: ``process_kwargs``.
    #: All randomness is drawn from the trial's seeded RNG streams, so
    #: trials stay bit-replayable.
    openloop: Optional[Dict[str, Any]] = None
    #: Non-None mounts an :class:`~repro.edge.tier.EdgeTier` in front of
    #: the cluster and drives one edge read per ``EDGE_STEP`` of the chaos
    #: loop (:mod:`repro.faultlab.explorer`).  The keys are passed to
    #: :meth:`EdgeTier.for_cluster` (``delta``, ``read_timeout``,
    #: ``failure_threshold``, ``cooldown``, ...).  The trial then runs the
    #: ``staleness_contract`` checker over the tier's ``edge_reply``
    #: events.
    edge: Optional[Dict[str, Any]] = None


SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; registered: "
                       f"{scenario_names()}") from None


def scenario_names(in_sweep_only: bool = False) -> List[str]:
    return sorted(name for name, s in SCENARIOS.items()
                  if s.in_sweep or not in_sweep_only)


# -- workloads ---------------------------------------------------------------------


def kv_workload(ctx, client_index: int) -> Iterator[Issue]:
    """Closed-loop key-value traffic: mostly puts, a sprinkle of
    read-only gets, slots and values drawn from the per-client RNG."""
    from repro.bft.statemachine import InMemoryStateManager
    rng = ctx.rng_for(f"workload:{client_index}")
    scenario = ctx.scenario
    for i in range(scenario.ops_per_client):
        slot = rng.randrange(max(1, STATE_SIZE // 2))
        if i > 0 and rng.random() < 0.25:
            yield Issue(InMemoryStateManager.op_get(slot), read_only=True)
        else:
            value = b"c%d-%d" % (client_index, i)
            yield Issue(InMemoryStateManager.op_put(slot, value))


def nfs_workload(ctx, client_index: int) -> Iterator[Issue]:
    """File traffic through the registered NFS service: create files
    under the root, write them, and read attributes back."""
    from repro.encoding.canonical import canonical, decanonical
    from repro.nfs.spec import ROOT_OID
    sattr_file = (0o644, 0, 0, -1, -1, -1)
    oids = []
    for i in range(ctx.scenario.ops_per_client):
        if i % 3 == 0 or not oids:
            result = yield Issue(canonical(
                ("create", ROOT_OID, f"f{client_index}-{i}", sattr_file)))
            decoded = decanonical(result)
            if decoded[0] == 0:
                oids.append(decoded[1])
        elif i % 3 == 1:
            yield Issue(canonical(
                ("write", oids[-1], 0, b"payload-%d" % i)))
        else:
            yield Issue(canonical(("getattr", oids[-1])), read_only=True)


def sql_workload(ctx, client_index: int) -> Iterator[Issue]:
    """Table traffic through the registered SQL service: each client
    owns one table — create it, fill it, read it back."""
    from repro.encoding.canonical import canonical
    table = f"t{client_index}"
    yield Issue(canonical(("create_table", table, ("id", "val"), "id")))
    for i in range(ctx.scenario.ops_per_client - 1):
        if i % 3 == 2:
            yield Issue(canonical(("select", table, i - 1)), read_only=True)
        else:
            yield Issue(canonical(("insert", table, (i, f"v{i}"))))


def kv_probe(ctx, k: int) -> Issue:
    """One harmless kv mutation for the post-quiesce convergence burst."""
    from repro.bft.statemachine import InMemoryStateManager
    return Issue(InMemoryStateManager.op_put(0, b"probe-%d" % k))


def nfs_probe(ctx, k: int) -> Issue:
    """One harmless file creation for the post-quiesce convergence burst."""
    from repro.encoding.canonical import canonical
    from repro.nfs.spec import ROOT_OID
    return Issue(canonical(("create", ROOT_OID, f"probe-{k}",
                            (0o644, 0, 0, -1, -1, -1))))


def sql_probe(ctx, k: int) -> Issue:
    """One harmless table creation for the post-quiesce convergence burst."""
    from repro.encoding.canonical import canonical
    return Issue(canonical(("create_table", f"probe{k}", ("id",), "id")))


# -- plan generators ---------------------------------------------------------------

_BACKUP_BEHAVIORS = ("wrong_reply", "forged_auth", "unauth_reply", "mute",
                     "replay", "delay")


def _plan_byzantine_backup(rng: random.Random) -> FaultPlan:
    replica = rng.randrange(1, 4)  # a backup in view 0
    behavior = rng.choice(_BACKUP_BEHAVIORS)
    params: Tuple = ()
    if behavior == "delay":
        params = (("delay", round(rng.uniform(0.02, 0.08), 3)),)
    elif behavior == "replay":
        params = (("every", rng.randrange(2, 4)),)
    return FaultPlan((ReplicaFault(replica, behavior, params=params),))


def _plan_equivocating_primary(rng: random.Random) -> FaultPlan:
    # The view-0 primary equivocates until the view change dethrones it;
    # sometimes it also lies about the nondeterministic value first.
    faults = [ReplicaFault(0, "equivocate")]
    if rng.random() < 0.5:
        faults.insert(0, ReplicaFault(0, "bad_nondet",
                                      stop=rng.uniform(0.2, 0.6)))
    return FaultPlan(tuple(faults))


def _plan_lossy_bursts(rng: random.Random) -> FaultPlan:
    faults = []
    at = 0.0
    for _ in range(rng.randrange(1, 3)):
        start = at + rng.uniform(0.0, 1.0)
        stop = start + rng.uniform(1.0, 4.0)
        faults.append(LossFault(round(rng.uniform(0.03, 0.15), 3),
                                start=round(start, 3), stop=round(stop, 3)))
        at = stop
    return FaultPlan(tuple(faults))


def _plan_partition_minority(rng: random.Random) -> FaultPlan:
    victim = rng.randrange(0, 4)  # sometimes the primary: forces a vc
    start = round(rng.uniform(0.0, 1.0), 3)
    stop = round(start + rng.uniform(1.5, 4.0), 3)
    return FaultPlan((PartitionFault((victim,), start=start, stop=stop),))


def _plan_staggered_recovery(rng: random.Random) -> FaultPlan:
    first, second = rng.sample(range(4), 2)
    faults = [RecoveryFault(first, start=round(rng.uniform(0.2, 1.0), 3)),
              RecoveryFault(second, start=round(rng.uniform(4.0, 6.0), 3))]
    if rng.random() < 0.5:
        faults.append(LossFault(0.05, start=0.0,
                                stop=round(rng.uniform(2.0, 5.0), 3)))
    return FaultPlan(tuple(faults))


def _plan_replay_under_delay_spike(rng: random.Random) -> FaultPlan:
    replica = rng.randrange(1, 4)
    spike_start = round(rng.uniform(0.5, 1.5), 3)
    return FaultPlan((
        ReplicaFault(replica, "replay", params=(("every", 2),)),
        DelaySpikeFault(round(rng.uniform(0.005, 0.02), 4),
                        start=spike_start,
                        stop=round(spike_start + rng.uniform(1.0, 3.0), 3)),
    ))


def _plan_lossy_equivocation(rng: random.Random) -> FaultPlan:
    """The untested combination: an equivocating primary while the
    network is also losing messages — the view change must still go
    through and no state may split."""
    return FaultPlan((
        ReplicaFault(0, "equivocate"),
        LossFault(round(rng.uniform(0.03, 0.10), 3), start=0.0,
                  stop=round(rng.uniform(3.0, 6.0), 3)),
    ))


def _plan_crash_and_return(rng: random.Random) -> FaultPlan:
    victim = rng.randrange(0, 4)
    start = round(rng.uniform(0.2, 1.0), 3)
    return FaultPlan((
        CrashFault(victim, start=start,
                   stop=round(start + rng.uniform(2.0, 4.0), 3)),
    ))


def _plan_stale_view_second_crash(rng: random.Random) -> FaultPlan:
    """Two crashes, never both at once: the primary is down across the
    view change and comes back having missed it; a backup then stops for
    good.  The returned replica must be the third of 2f+1 by then."""
    start = round(rng.uniform(0.3, 0.8), 3)
    stop = round(start + rng.uniform(1.5, 2.0), 3)
    return FaultPlan((
        CrashFault(0, start=start, stop=stop),
        CrashFault(rng.choice((2, 3)),
                   start=round(stop + rng.uniform(1.0, 1.5), 3)),
    ))


def _plan_aging_nfs(rng: random.Random) -> FaultPlan:
    """Software ageing on one NFS replica: its backend silently corrupts
    writes for a window, then proactive recovery rejuvenates it."""
    victim = rng.randrange(0, 4)
    rot_stop = round(rng.uniform(1.5, 3.0), 3)
    return FaultPlan((
        BackendFault(victim, "corrupting",
                     params=(("probability", 1.0), ("seed", rng.randrange(64))),
                     stop=rot_stop),
        RecoveryFault(victim, start=round(rot_stop + 2.0, 3)),
    ))


def _plan_retry_storm(rng: random.Random) -> FaultPlan:
    """A network-wide latency spike longer than the clients' retry
    timeout: every open-loop session times out and retransmits at once,
    and the duplicate wave hits replicas just as the spike clears."""
    spike_start = round(rng.uniform(0.5, 1.5), 3)
    faults = [DelaySpikeFault(round(rng.uniform(0.08, 0.2), 3),
                              start=spike_start,
                              stop=round(spike_start + rng.uniform(1.0, 2.5),
                                         3))]
    if rng.random() < 0.5:
        faults.append(LossFault(round(rng.uniform(0.03, 0.10), 3),
                                start=spike_start,
                                stop=round(spike_start + 1.0, 3)))
    return FaultPlan(tuple(faults))


def _plan_flash_crowd(rng: random.Random) -> FaultPlan:
    """A backup fail-stops during heavy-tailed traffic bursts; the front
    door must keep serving the crowd with one replica down and reconverge
    it afterwards."""
    victim = rng.randrange(1, 4)
    start = round(rng.uniform(0.5, 2.0), 3)
    return FaultPlan((
        CrashFault(victim, start=start,
                   stop=round(start + rng.uniform(1.5, 3.0), 3)),
    ))


def _plan_shard_primary_partition(rng: random.Random) -> FaultPlan:
    """Cut shard 0's view-0 primary off for a window: the faulted group
    must view-change and reconverge while its co-tenant shards (same
    scheduler, same network) never notice.

    The window opens within the first couple of simulated milliseconds —
    while the workload is in flight — so client retries actually hit the
    dead primary and force the view change (a later window would open
    onto an idle group and nothing would time out).
    """
    start = round(rng.uniform(0.0, 0.002), 4)
    stop = round(start + rng.uniform(1.5, 3.0), 3)
    return FaultPlan((PartitionFault((0,), start=start, stop=stop),))


def _plan_tentative_viewchange(rng: random.Random) -> FaultPlan:
    """The fast path's worst moment: the view-0 primary crashes
    mid-burst while message loss keeps the commit phase from finishing,
    so replicas hold *tentatively executed but uncommitted* batches
    across the view change.  The loss window also makes prepare
    certificates asymmetric (one replica may reach prepared and execute
    while its peers never do), which is exactly the shape where a
    NEW-VIEW built from the other replicas' VIEW-CHANGE messages fails
    to re-propose a tentatively executed batch — forcing the rollback
    path rather than merely threatening it.  The primary returns, so
    later view changes run with four live replicas and a 2f+1 quorum
    that can exclude the tentative executor's certificate."""
    # Loss opens at t=0 so the first view changes run while all four
    # replicas are still up: a 2f+1 certificate chosen from four
    # VIEW-CHANGEs is what can exclude the tentative executor's
    # prepared certificate (with only three alive, all three VCs are
    # needed and every certificate survives).  The primary crashes
    # after that churn has started, mid view change.
    loss_stop = round(rng.uniform(2.5, 3.5), 3)
    crash_at = round(rng.uniform(1.2, 2.0), 3)
    faults = [
        LossFault(round(rng.uniform(0.4, 0.6), 3), start=0.0,
                  stop=loss_stop),
        CrashFault(0, start=crash_at,
                   stop=round(crash_at + rng.uniform(1.0, 2.0), 3)),
    ]
    if rng.random() < 0.5:
        # Jitter message arrival so which 2f+1 VIEW-CHANGEs form the
        # new-view certificate varies across seeds.
        faults.append(DelaySpikeFault(round(rng.uniform(0.005, 0.02), 4),
                                      start=0.0, stop=loss_stop))
    return FaultPlan(tuple(faults))


def _plan_edge_partition(rng: random.Random) -> FaultPlan:
    """Cut the edge tier off from the core for ~100 ms while edge reads
    keep flowing: the ladder must degrade to bounded-stale answers from
    the warmed cache, never exceed an advertised bound, and re-promote
    to linearizable once healed."""
    start = round(rng.uniform(0.3, 0.9), 3)
    return FaultPlan((EdgePartitionFault(start=start,
                                         stop=round(start + 0.1, 3)),))


def _plan_edge_viewchange(rng: random.Random) -> FaultPlan:
    """Partition the view-0 primary mid-workload: the ensuing view
    change must trip the edge breaker (the view-change signal), degrade
    edge reads per-shard, and re-promote after the new view settles."""
    start = round(rng.uniform(0.1, 0.4), 3)
    stop = round(start + rng.uniform(1.5, 2.5), 3)
    return FaultPlan((PartitionFault((0,), start=start, stop=stop),))


def _plan_beyond_f_wrong_reply(rng: random.Random) -> FaultPlan:
    """Deliberately beyond f: two colluding wrong-reply replicas can mint
    an f+1 vote for a result no correct replica computed.  Kept out of
    the sweep; the regression tests assert the reply-validity checker
    catches it."""
    first, second = rng.sample(range(1, 4), 2)
    return FaultPlan((
        ReplicaFault(first, "wrong_reply"),
        ReplicaFault(second, "wrong_reply"),
    ))


# -- the registry -------------------------------------------------------------------

_FAST_CFG = dict(checkpoint_interval=4, view_change_timeout=0.8,
                 client_retry_timeout=0.4)

register_scenario(Scenario(
    name="byzantine_backup",
    description="One backup runs a random Byzantine behavior "
                "(wrong replies, forged MACs, silence, replay, delay) "
                "for the whole trial.",
    plan=_plan_byzantine_backup,
    config=dict(_FAST_CFG),
))

register_scenario(Scenario(
    name="equivocating_primary",
    description="The view-0 primary sends conflicting orderings "
                "(sometimes after proposing bogus nondeterministic "
                "values); the view change must restore progress.",
    plan=_plan_equivocating_primary,
    config=dict(_FAST_CFG, view_change_timeout=0.5),
    n_clients=1,  # single-request batches keep the primary equivocating
    duration=60.0,
))

register_scenario(Scenario(
    name="lossy_bursts",
    description="Windows of elevated message loss on every link; "
                "retransmission paths must keep the workload moving.",
    plan=_plan_lossy_bursts,
    config=dict(_FAST_CFG),
    duration=60.0,
))

register_scenario(Scenario(
    name="partition_minority",
    description="One replica (sometimes the primary) is partitioned "
                "from everyone, then healed; state transfer must "
                "reconverge it.",
    plan=_plan_partition_minority,
    config=dict(_FAST_CFG),
    duration=60.0,
))

register_scenario(Scenario(
    name="staggered_recovery",
    description="Two staggered proactive recoveries, sometimes under "
                "background loss; the group must stay available.",
    plan=_plan_staggered_recovery,
    config=dict(_FAST_CFG, reboot_delay=0.3),
    duration=60.0,
    settle=15.0,
))

register_scenario(Scenario(
    name="replay_under_delay_spike",
    description="A replaying replica plus a network-wide latency spike: "
                "duplicates and stale messages under reordering.",
    plan=_plan_replay_under_delay_spike,
    config=dict(_FAST_CFG),
))

register_scenario(Scenario(
    name="lossy_equivocation",
    description="Equivocating primary on a lossy network: the view "
                "change itself runs under message loss.",
    plan=_plan_lossy_equivocation,
    config=dict(_FAST_CFG, view_change_timeout=0.5),
    n_clients=1,
    duration=90.0,
    settle=15.0,
))

register_scenario(Scenario(
    name="crash_and_return",
    description="A replica fail-stops mid-workload and later restarts; "
                "it must catch back up via checkpoints/state transfer.",
    plan=_plan_crash_and_return,
    config=dict(_FAST_CFG),
    duration=60.0,
))

register_scenario(Scenario(
    name="stale_view_second_crash",
    description="The primary crashes, misses the view change, restarts; "
                "then a backup crashes for good.  One fault at a time, "
                "so steady open-loop traffic must be accepted throughout.",
    plan=_plan_stale_view_second_crash,
    config=dict(_FAST_CFG),
    n_clients=1,
    ops_per_client=4,
    openloop=dict(rate=30.0, duration=8.0, slo_p95=0.5),
    duration=30.0,
    settle=10.0,
))

register_scenario(Scenario(
    name="aging_nfs",
    description="BASEFS with one replica's backend silently corrupting "
                "writes until proactive recovery rejuvenates it "
                "(built from the repro.service registry).",
    plan=_plan_aging_nfs,
    config=dict(_FAST_CFG, reboot_delay=0.3),
    service="nfs",
    workload=nfs_workload,
    probe=nfs_probe,
    n_clients=1,
    ops_per_client=9,
    duration=90.0,
    settle=20.0,
))

register_scenario(Scenario(
    name="retry_storm",
    description="Open-loop traffic with aggressive client retry timers "
                "meets a latency spike longer than the timeout: a "
                "synchronized retransmission storm that must not break "
                "safety and must drain once the spike clears.",
    plan=_plan_retry_storm,
    config=dict(_FAST_CFG, client_retry_timeout=0.05),
    n_clients=1,
    ops_per_client=6,
    openloop=dict(process="poisson", rate=250.0, duration=6.0,
                  slo_p95=0.02, pool_size=8, queue_limit=64),
    duration=30.0,
    settle=10.0,
))

register_scenario(Scenario(
    name="flash_crowd",
    description="Self-similar (heavy-tailed on-off) bursts from the "
                "million-user front door while a backup crashes and "
                "returns: the group must absorb the crowd, shed at the "
                "bounded queue, and reconverge the victim.",
    plan=_plan_flash_crowd,
    config=dict(_FAST_CFG),
    n_clients=1,
    ops_per_client=6,
    openloop=dict(process="onoff", rate=300.0, duration=6.0,
                  slo_p95=0.02, pool_size=16, queue_limit=128,
                  process_kwargs=dict(on_fraction=0.15, mean_on=0.4)),
    duration=30.0,
    settle=10.0,
))

register_scenario(Scenario(
    name="shard_view_change",
    description="Two co-tenant SQL shards on one fabric; shard 0's "
                "view-0 primary is partitioned away.  The faulted group "
                "must view-change and reconverge; the healthy shard must "
                "stay in view 0 and exchange zero messages with it.",
    plan=_plan_shard_primary_partition,
    config=dict(_FAST_CFG),
    service="sql",
    workload=sql_workload,
    probe=sql_probe,
    shards=2,
    n_clients=1,
    ops_per_client=8,
    duration=60.0,
    settle=15.0,
))

register_scenario(Scenario(
    name="tentative_viewchange",
    description="Primary crash with tentatively executed but "
                "uncommitted batches: loss stalls the commit phase while "
                "replicas execute at prepared, the view change re-orders "
                "or drops some of those batches, and the rollback "
                "machinery must undo them without breaking reply "
                "validity or agreement.",
    plan=_plan_tentative_viewchange,
    config=dict(_FAST_CFG),
    n_clients=3,
    ops_per_client=10,
    duration=60.0,
    settle=15.0,
))

register_scenario(Scenario(
    name="edge_partition",
    description="Bounded-staleness edge reads across a ~100 ms edge-to-"
                "core partition: the tier must serve flagged "
                "bounded-stale answers from the warmed cache, honor "
                "every advertised staleness bound, and re-promote to "
                "linearizable after the heal.",
    plan=_plan_edge_partition,
    config=dict(_FAST_CFG),
    edge=dict(delta=0.5, read_timeout=0.04, refresh_timeout=0.04,
              failure_threshold=1, cooldown=0.3, probe_quota=1),
    duration=30.0,
    settle=10.0,
))

register_scenario(Scenario(
    name="edge_viewchange_degrade",
    description="The view-0 primary is partitioned away mid-workload: "
                "the view change trips the edge breaker via the "
                "view-change signal, edge reads degrade per-shard, and "
                "the ladder re-promotes once the new view settles.",
    plan=_plan_edge_viewchange,
    # Retry before the open-loop session deadline (slo_p95 * 8), so the
    # backups actually see retransmissions and arm view-change timers.
    config=dict(_FAST_CFG, client_retry_timeout=0.1),
    edge=dict(delta=0.6, read_timeout=0.04, refresh_timeout=0.04,
              failure_threshold=2, cooldown=0.5, probe_quota=2),
    # Ordered traffic must be in flight when the primary disappears or
    # no view-change timer ever arms (the closed-loop scripts finish in
    # milliseconds): open-loop writes span the partition window.
    openloop=dict(process="poisson", rate=100.0, duration=5.0,
                  slo_p95=0.02, pool_size=4, queue_limit=64),
    duration=40.0,
    settle=10.0,
))

register_scenario(Scenario(
    name="beyond_f_wrong_reply",
    description="REGRESSION (beyond f, excluded from sweeps): two "
                "colluding wrong-reply replicas defeat the f+1 vote; "
                "the reply-validity checker must catch it.",
    plan=_plan_beyond_f_wrong_reply,
    config=dict(_FAST_CFG),
    expect_liveness=False,
    in_sweep=False,
))
