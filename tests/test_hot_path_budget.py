"""A work-and-determinism fence around the normal-case path.

The perf ledger (``benchmarks/ledger``) compares simulated behaviour
bit for bit across commits, but it runs outside tier-1.  This test is
its small in-tree twin: one fixed-seed closed loop on the raw BFT group
whose simulated outcome is pinned as literals, so a hot-path edit that
moves simulated time, message counts, wire bytes or trace counters —
a reordered ``charge()``, a changed RNG draw, a different wire size —
fails here first.  The literals were captured on the commit before the
hot path was optimised; they change only when the *model* changes.

The second half pins the seal-once budget: a message is one Python
object at its sender and at every receiver, so it is encoded and hashed
at most once however many replicas handle it.

The third is the same fence for the BASE-SQL path (two engine kinds,
checkpoints, a state transfer), plus the budget of an insert: constant
work in the conformance rep however many rows the table holds.

The fourth is the fence for the BASEFS path (Andrew over the four vendor
backends, five checkpoints), plus the budget of a LOOKUP: per replica
the backend calls the wrapper has always made and no value record but
the backend's own, and one decode of the op for the whole group.

The fifth pins one view change: a signature is checked once per
replica however many messages carry it, and a NEW-VIEW carries the
VIEW-CHANGEs as summaries.
"""

import hashlib
import random
import sys
from collections import Counter

import repro.base.mappings as mappings
import repro.bft.messages as messages
import repro.service.kernel as kernel
from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.encoding.canonical import canonical, decanonical
from repro.harness.cluster import build_cluster
from repro.harness.costs import (CHECKPOINT_COST, PER_OBJECT_CHECK_COST,
                                 PROTOCOL_COSTS, lan_network, replica_costs,
                                 vendor_profile)
from repro.nfs.backends import ALL_BACKENDS
from repro.nfs.client import NfsClient
from repro.nfs.protocol import Fattr, NfsProc, Sattr, StatfsResult
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractMeta, AbstractObject, AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment
from repro.sql.engine import BTreeStoreEngine, HashStoreEngine
from repro.sql.service import SQL_SERVICE
from repro.sql.wrapper import SqlConformanceWrapper
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig

SEED = 7
CLIENTS = 4
PUTS_PER_CLIENT = 50

put = InMemoryStateManager.op_put


def run_closed_loop():
    """4 clients x 50 puts, each client's next put issued on acceptance."""
    cluster = build_cluster(
        lambda i: InMemoryStateManager(size=64),
        config=BftConfig(n=4, batch_max=8, checkpoint_interval=16),
        network_config=lan_network(SEED), costs=PROTOCOL_COSTS, seed=SEED)
    remaining = [CLIENTS * PUTS_PER_CLIENT]

    def start(index):
        client = cluster.add_client(f"client{index}",
                                    costs=PROTOCOL_COSTS).client
        issued = [0]

        def issue(_result=None):
            if _result is not None:
                assert _result == b"ok"
                remaining[0] -= 1
            if issued[0] < PUTS_PER_CLIENT:
                issued[0] += 1
                client.invoke(put((index * 7 + issued[0]) % 64,
                                  b"c%d-%d" % (index, issued[0])), issue)

        issue()

    for index in range(CLIENTS):
        start(index)
    assert cluster.run_until(lambda: remaining[0] == 0)
    cluster.run(0.1)        # let the in-flight commits land
    return cluster


def test_simulated_outcome_is_pinned():
    cluster = run_closed_loop()
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
    assert cluster.scheduler.events_run == 2310
    assert cluster.network.messages_sent == 2308
    assert cluster.network.bytes_sent == 203704
    assert cluster.scheduler.now == 0.13465726531353578
    assert roots.pop().hex() == (
        "d45c02aa87bddeb4f5a97fb79c301f102696cf876caa1005a7053305dcc2f235")
    tracer = cluster.tracer
    assert dict(tracer.counters) == {
        "checkpoint_stable": 12, "checkpoint_taken": 12, "committed": 212,
        "executed": 800, "pre_prepare_sent": 53, "prepared": 212,
        "result_accepted": 200}
    assert (len(tracer.events), tracer.dropped_events) == (1501, 0)
    assert tracer.metrics.counters == {
        "client.accept_tentative": 200, "client.requests": 200}
    assert {name: (hist.count, hist.sum)
            for name, hist in tracer.metrics.histograms.items()} == {
        "batch.size": (53, 200.0),
        "phase.pre_prepare_to_prepared": (212, 0.05049945102649402),
        "phase.prepared_to_committed": (212, 0.02183138026720956),
        "phase.prepared_to_executed": (212, 0.0),
        "phase.request_to_pre_prepare": (200, 0.006717346819527339),
        "phase.request_to_reply": (200, 0.13547131855357783)}


def test_each_message_is_encoded_and_hashed_at_most_once(monkeypatch):
    encoded = Counter()
    hashed = Counter()
    real_canonical, real_digest = messages.canonical, messages.sha_digest

    def counting_canonical(value):
        body = real_canonical(value)
        encoded[body] += 1
        return body

    def counting_digest(data):
        hashed[data] += 1
        return real_digest(data)

    monkeypatch.setattr(messages, "canonical", counting_canonical)
    monkeypatch.setattr(messages, "sha_digest", counting_digest)
    cluster = run_closed_loop()

    # Distinct messages have distinct bodies in a fault-free run (every
    # body names its sender and its request or slot), so a body seen
    # twice is a message encoded twice.
    assert encoded and max(encoded.values()) == 1
    assert hashed and max(hashed.values()) == 1
    # Everything hashed through the messages module is a message body.
    assert set(hashed) <= set(encoded)
    # 200 requests, 800 replies, 53 pre-prepares, 159 prepares, 212
    # commits and 12 checkpoints make 2308 deliveries: one encode per
    # message, not per delivery, and one hash per MAC-authenticated
    # message (checkpoints are signed over the body instead).
    assert len(encoded) == 1436
    assert len(hashed) == 1436 - 12
    assert cluster.network.messages_sent == 2308


# -- the BASE-SQL path -----------------------------------------------------------

SQL_SEED = 11
SQL_STEPS = 150


def run_sql_loop():
    """One table on B-tree/hash/B-tree/hash replicas: 150 inserts (some
    with a mixed-type key), updates, selects and deletes across four
    checkpoints, with replica 3 cut off for 70 of them so that it
    catches up by state transfer (``put_objs``)."""
    deployment = ReplicatedDeployment.build(
        SQL_SERVICE, [BTreeStoreEngine, HashStoreEngine,
                      BTreeStoreEngine, HashStoreEngine],
        config=BftConfig(n=4, checkpoint_interval=32),
        network_config=lan_network(SQL_SEED), replica_costs=replica_costs(),
        seed=SQL_SEED, array_size=256)
    cluster, channel = deployment.cluster, deployment.channel
    lagger = cluster.replicas[3]
    peers = [r.node_id for r in cluster.replicas if r is not lagger]
    rng = random.Random(SQL_SEED)
    replies, live, fresh = [], [], iter(range(10_000))

    def call(*parts, read_only=False):
        replies.append(decanonical(
            channel.call(canonical(parts), read_only=read_only)))

    call("create_table", "acct", ("id", "balance"), "id")
    for step in range(SQL_STEPS):
        if step == 40:
            for peer in peers:
                cluster.network.partition(lagger.node_id, peer)
        elif step == 110:
            cluster.network.heal_all()
        roll = rng.random()
        if roll < 0.45 or not live:
            key = next(fresh)
            live.append(key)
            call("insert", "acct", (key, f"opening-{key}"))
        elif roll < 0.50:
            call("insert", "acct", (f"k{step}", "mixed key type"))
        elif roll < 0.65:
            key = rng.choice(live)
            call("update", "acct", key, (key, f"step-{step}"))
        elif roll < 0.85:
            call("select", "acct", rng.choice(live), read_only=True)
        else:
            key = live.pop(rng.randrange(len(live)))
            call("delete", "acct", key)
    cluster.run(2.0)
    return cluster, replies


def test_sql_simulated_outcome_is_pinned():
    cluster, replies = run_sql_loop()
    lagger = cluster.replicas[3]
    assert lagger.transfer.objects_fetched_total == 35
    assert [r.last_stable for r in cluster.replicas] == [128] * 4
    assert cluster.scheduler.events_run == 3359
    assert cluster.network.messages_sent == 3732
    assert cluster.network.bytes_sent == 251371
    assert cluster.scheduler.now == 2.0734909880839143
    assert {r.state.tree.root_digest.hex() for r in cluster.replicas} == {
        "622347d54fe2ea351a74d640aba11d2ed1794f5d3dcf2e5b796245cdffa35187"}
    assert Counter(r[0] if r[0] == "OK" else r[1] for r in replies) == {
        "OK": 142, "22018": 9}
    assert hashlib.sha256(canonical(tuple(replies))).hexdigest() == (
        "83b922d75fe90d2e3398a43af674c84a013ea74e61fbea5d1bf54b11c1c68a9e")
    assert dict(cluster.tracer.counters) == {
        "checkpoint_stable": 14, "checkpoint_taken": 14, "committed": 452,
        "executed": 449, "pre_prepare_sent": 128, "prepared": 452,
        "read_only_executed": 91, "result_accepted": 151,
        "transfer_complete": 1, "transfer_started": 1}


def test_insert_work_does_not_grow_with_the_table():
    """Count calls, not seconds: an insert into a 2 000-row table sorts
    nothing and does no more mapping work than one into a 20-row table."""
    mapping_code = set()
    pending = [fn.__code__ for cls in (mappings.KeyedArrayMapping,
                                       mappings.SlotAllocator)
               for fn in vars(cls).values() if hasattr(fn, "__code__")]
    while pending:      # methods and the lambdas nested in them
        code = pending.pop()
        mapping_code.add(code)
        pending += [c for c in code.co_consts if hasattr(c, "co_code")]

    def insert_cost(rows):
        wrapper = SqlConformanceWrapper(HashStoreEngine(), array_size=4096)
        execute = lambda *parts: decanonical(            # noqa: E731
            wrapper.execute(canonical(parts), "c", b""))
        execute("create_table", "t", ("k", "v"), "k")
        for key in range(rows):
            execute("insert", "t", (key, "v"))
        calls = Counter()

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code in mapping_code:
                calls["mapping"] += 1
            elif event == "c_call" and arg is sorted:
                calls["sorted"] += 1

        sys.setprofile(profiler)
        try:
            reply = execute("insert", "t", (rows, "v"))
        finally:
            sys.setprofile(None)
        assert reply[0] == "OK"
        return calls

    small, large = insert_cost(20), insert_cost(2000)
    assert large["mapping"] == small["mapping"] > 0
    # ``engine.tables()`` sorts the catalog (one table): nothing else may.
    assert large["sorted"] == small["sorted"] <= 1


# -- the BASEFS path -------------------------------------------------------------

NFS_SEED = 13


def build_basefs():
    """BASEFS over the four vendor backends, a checkpoint every 16
    requests, every cost the Andrew tables charge switched on."""
    return ReplicatedDeployment.build(
        NFS_SERVICE, list(ALL_BACKENDS),
        config=BftConfig(n=4, checkpoint_interval=16),
        base_config=BaseServiceConfig(
            per_object_check_cost=PER_OBJECT_CHECK_COST,
            checkpoint_cost=CHECKPOINT_COST),
        network_config=lan_network(NFS_SEED), replica_costs=replica_costs(),
        client_id="nfs-client", seed=NFS_SEED,
        spec=AbstractSpecConfig(array_size=256),
        profiles=[vendor_profile(cls.vendor) for cls in ALL_BACKENDS])


def test_basefs_simulated_outcome_is_pinned():
    deployment = build_basefs()
    cluster = deployment.cluster
    result = AndrewBenchmark(NfsClient(deployment.client, attr_ttl=30.0),
                             AndrewConfig(copies=1)).run()
    cluster.run(0.5)
    assert result.ops_issued == 244
    assert result.total == 0.8517960743174282
    assert cluster.scheduler.events_run == 3903
    assert cluster.network.messages_sent == 3902
    assert cluster.network.bytes_sent == 1073305
    assert cluster.scheduler.now == 1.3517960743174282
    assert [r.state.last_checkpoint_seq for r in cluster.replicas] == [80] * 4
    assert {r.checkpoint_history[-1][1].hex()
            for r in cluster.replicas} == {
        "f98004b5707f439c70e2d4a07742526471b2cd6c0777d5a5135a7eb3549060ae"}
    assert dict(cluster.tracer.counters) == {
        "checkpoint_stable": 20, "checkpoint_taken": 20, "committed": 328,
        "executed": 328, "pre_prepare_sent": 82, "prepared": 328,
        "read_only_executed": 648, "result_accepted": 244}


def test_lookup_work_is_the_backend_calls_and_one_decode(monkeypatch):
    """Count calls, not seconds: a LOOKUP costs each replica its
    backend's ``lookup`` and ``getattr`` and the two ``Fattr``s those
    build; the wrapper builds no value record of its own, and the four
    replicas share one decode of the op bytes."""
    deployment = build_basefs()
    transport, replicas = deployment.client, deployment.cluster.replicas
    backends = [r.state.upcalls.backend for r in replicas]
    root = transport.root_fh()
    transport.call(NfsProc.MKDIR, root, "src", (0o755, 0, 0, -1, -1, -1))
    deployment.cluster.run(0.1)

    # Every way an instance comes to be: the class call and ``_make``.
    records = (Fattr, Sattr, StatfsResult, AbstractMeta, AbstractObject)
    builders = {fn.__code__: cls.__name__ for cls in records
                for fn in (cls.__new__, cls._make.__func__)}
    built, decoded = Counter(), []
    real_decanonical = kernel.decanonical

    def counting_decanonical(data):
        decoded.append(data)
        return real_decanonical(data)

    monkeypatch.setattr(kernel, "decanonical", counting_decanonical)

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in builders:
            built[builders[frame.f_code]] += 1

    served = [backend.ops_served for backend in backends]
    sys.setprofile(profiler)
    try:
        oid, fattr = transport.call(NfsProc.LOOKUP, root, "src",
                                    read_only=True)
    finally:
        sys.setprofile(None)
    assert (oid, fattr[0], fattr[7]) == (b"\0\0\0\1\0\0\0\1", 2, 1)
    assert [backend.ops_served - before
            for backend, before in zip(backends, served)] == [2] * 4
    assert built == {"Fattr": 8}
    assert decoded == [canonical(("lookup", root, "src"))]


# -- one view change --------------------------------------------------------------


def test_one_view_change_checks_each_signature_once(monkeypatch):
    """The primary crashes with a stable checkpoint at 32 and batches
    33..40 prepared above it; f=1, no other fault.  The new primary
    checks the two other VIEW-CHANGEs; a backup checks those two and the
    NEW-VIEW.  The 2f+1 CHECKPOINTs inside each VIEW-CHANGE, and the
    VIEW-CHANGEs inside the NEW-VIEW, were checked already (before: 8
    and 21 checks, and a NEW-VIEW of 11752 bytes)."""
    from repro.bft.replica import Replica
    cluster = build_cluster(
        lambda i: InMemoryStateManager(size=64),
        config=BftConfig(n=4, batch_max=8, checkpoint_interval=16,
                         view_change_timeout=0.05, client_retry_timeout=0.02),
        network_config=lan_network(SEED), costs=PROTOCOL_COSTS, seed=SEED)
    client = cluster.add_client("client0", costs=PROTOCOL_COSTS)
    for i in range(40):
        client.call(put(i, b"w%d" % i))
    assert {(r.last_stable, r.last_executed)
            for r in cluster.replicas} == {(32, 40)}
    checked = Counter()
    real_verify = Replica.verify_sig

    def counting(self, signer, msg):
        if (signer, msg.body(), msg.sig) not in self.verified_sigs:
            checked[self.node_id] += 1
        return real_verify(self, signer, msg)

    monkeypatch.setattr(Replica, "verify_sig", counting)
    cluster.replicas[0].crash()
    assert client.call(put(1, b"after")) == b"ok"
    cluster.run(0.5)
    assert [r.view for r in cluster.replicas] == [0, 1, 1, 1]
    assert checked == {"replica1": 2, "replica2": 3, "replica3": 3}
    nv = cluster.replicas[1].view_changes.last_new_view
    assert [len(vc.prepared) for vc in nv.view_changes] == [8, 8, 8]
    assert len(nv.pre_prepares) == 8
    assert nv.wire_size() == 5440
