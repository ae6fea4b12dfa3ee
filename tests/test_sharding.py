"""ShardStack: deterministic routing, shard isolation, and the
cross-shard two-phase commit path.

Covers the sharding layer at three levels:

- **router units** — stable hashing, learned pins for service-minted
  NFS handles, broadcast agreement, and cross-shard refusal, over
  scripted channels (no clusters);
- **full deployments** — same seed + same op stream give bit-identical
  per-shard op counts and request-log digest chains; two
  co-tenant groups on one fabric exchange zero messages, and a 1 -> 2
  -> 4 shard weak-scaling sweep reads pinned simulated rates;
- **differential** — a cross-shard transaction leaves exactly the
  abstract state of equivalent single-group execution, and a refused
  transaction leaves no trace on any shard.
"""

from collections import Counter

import pytest

from repro.bft.config import BftConfig
from repro.encoding.canonical import canonical, decanonical
from repro.harness.costs import PROTOCOL_COSTS, lan_network
from repro.nfs.spec import ROOT_OID
from repro.service.deploy import Channel, LearnedKey, ReplicatedDeployment
from repro.service.sharding import (CrossShardOp, RoutingError, ShardRouter,
                                    ShardedDeployment, TxnAborted,
                                    stable_shard)
from repro.sql.service import SQL_SERVICE
from repro.nfs.service import NFS_SERVICE
from repro.thor.service import THOR_SERVICE

_FAST = dict(checkpoint_interval=8)


def _tables_by_shard(num_shards, per_shard=1):
    """Deterministically pick table names hashing to each shard."""
    chosen = {shard: [] for shard in range(num_shards)}
    i = 0
    while any(len(names) < per_shard for names in chosen.values()):
        name = f"t{i}"
        shard = stable_shard(name, num_shards)
        if len(chosen[shard]) < per_shard:
            chosen[shard].append(name)
        i += 1
    return chosen


# -- router units ------------------------------------------------------------------


class ScriptedChannel(Channel):
    """Channel double: records every op, answers from a callable."""

    def __init__(self, respond):
        self.ops = []
        self.respond = respond

    def call(self, op: bytes, read_only: bool = False) -> bytes:
        self.ops.append(op)
        return canonical(self.respond(decanonical(op)))

    def charge(self, seconds: float) -> None:
        pass

    @property
    def now(self) -> float:
        return 0.0


def test_stable_shard_is_digest_based_and_in_range():
    for key in ("users", ("page", 3), b"\x00\x01", 42):
        shards = {stable_shard(key, n) for n in (2, 4)}
        assert all(0 <= stable_shard(key, n) < n for n in (2, 4))
    # Regression pin: the mapping must come from digest(canonical(key)),
    # not Python's randomized hash().  These values are fixed forever.
    assert stable_shard("users", 4) == 2
    assert stable_shard("accounts", 4) == 1


def test_router_routes_sql_by_table_and_keyless_to_home():
    channels = [ScriptedChannel(lambda op: ("OK",)) for _ in range(4)]
    router = ShardRouter(channels, SQL_SERVICE.shard_key)
    router.call(canonical(("insert", "users", (1, "ada"))))
    assert channels[stable_shard("users", 4)].ops
    router.call(canonical(("tables",)), read_only=True)
    assert len(channels[0].ops) + (stable_shard("users", 4) == 0) >= 1
    assert router.ops_routed[0] >= 1  # keyless op went to the home shard


def test_router_learns_nfs_minted_handles():
    spec = NFS_SERVICE.shard_key
    fh_a, fh_b = b"\x00" * 7 + b"\x0a", b"\x00" * 7 + b"\x0b"

    def respond_with(fh):
        return lambda op: (0, fh, ())

    # One subtree name per shard, under the router's actual key shape.
    names = {}
    i = 0
    while len(names) < 2:
        name = f"dir{i}"
        names.setdefault(stable_shard(("subtree", name), 2), name)
        i += 1
    channels = [ScriptedChannel(respond_with(fh_a)),
                ScriptedChannel(respond_with(fh_b))]
    router = ShardRouter(channels, spec)
    router.call(canonical(("lookup", ROOT_OID, names[0])))
    assert router.pins == {fh_a: 0}
    # The learned handle now routes without any name context.
    router.call(canonical(("getattr", fh_a)))
    assert len(channels[0].ops) == 2
    # An unlearned handle is a deterministic routing error, never a hash.
    with pytest.raises(RoutingError):
        router.call(canonical(("getattr", b"\x00" * 7 + b"\x7f")))
    # A second shard minting the same handle bytes is a pin conflict.
    channels[1].respond = respond_with(fh_a)
    with pytest.raises(RoutingError):
        router.call(canonical(("lookup", ROOT_OID, names[1])))


def test_router_refuses_multi_shard_op_with_cross_shard_error():
    from repro.thor.orefs import make_oref
    channels = [ScriptedChannel(lambda op: (0,)) for _ in range(2)]
    router = ShardRouter(channels, THOR_SERVICE.shard_key)
    page0 = page1 = None
    for p in range(64):
        shard = stable_shard(("page", p), 2)
        if shard == 0 and page0 is None:
            page0 = p
        if shard == 1 and page1 is None:
            page1 = p
    op = canonical(("commit", "alice", 1,
                    (make_oref(page0, 1), make_oref(page1, 1)), (), (), ()))
    with pytest.raises(CrossShardOp) as excinfo:
        router.call(op)
    assert excinfo.value.shards == [0, 1]
    assert not channels[0].ops and not channels[1].ops


def test_router_broadcast_requires_agreement():
    channels = [ScriptedChannel(lambda op: (0, 0)),
                ScriptedChannel(lambda op: (0, 0))]
    router = ShardRouter(channels, THOR_SERVICE.shard_key)
    router.call(canonical(("start_session", "alice")))
    assert channels[0].ops and channels[1].ops
    channels[1].respond = lambda op: (0, 99)
    with pytest.raises(RoutingError):
        router.call(canonical(("start_session", "bob")))


# -- full deployments --------------------------------------------------------------


def _sharded_sql(num_shards, seed=11):
    return ShardedDeployment.build(
        SQL_SERVICE, num_shards, config=BftConfig(**_FAST), seed=seed)


def _run_workload(deployment, tables):
    client = deployment.client
    for i, table in enumerate(tables):
        client.create_table(table, ["id", "val"], "id")
        client.insert(table, [1, f"{table}-row1"])
        client.insert(table, [2, f"{table}-row2"])
        client.update(table, 1, [1, f"{table}-row1b"])
        if i % 2:
            client.delete(table, 2)
        client.select(table, 1)


def test_same_seed_same_stream_identical_routing():
    tables = [name for names in _tables_by_shard(2, 2).values()
              for name in names]
    runs = []
    for _ in range(2):
        deployment = _sharded_sql(2)
        _run_workload(deployment, tables)
        # One sequential client: equal per-shard digest chains and counts
        # pin which shard every op went to.
        runs.append((list(deployment.router.shard_logs),
                     list(deployment.router.ops_routed)))
    assert runs[0] == runs[1]
    # And the stream genuinely exercised both shards.
    assert all(count > 0 for count in runs[0][1])


def test_co_tenant_groups_exchange_zero_messages():
    deployment = _sharded_sql(2)
    crossings = []

    def watch(src, dst, msg):
        # Observe without dropping: classify endpoints by shard prefix.
        groups = {str(end).split("/", 1)[0] for end in (src, dst)
                  if str(end).startswith("shard")}
        if len(groups) > 1:
            crossings.append((src, dst))
        return True

    deployment.network.add_filter(watch)
    tables = _tables_by_shard(2)
    _run_workload(deployment, [tables[0][0], tables[1][0]])
    assert deployment.network.messages_sent > 0
    assert crossings == []
    # ...and the groups' abstract states are genuinely disjoint: a table
    # living on shard 0 does not exist on shard 1.
    from repro.sql.engine import SqlEngineError
    table0 = tables[0][0]
    assert deployment.router.shard_of(table0) == 0
    with pytest.raises(SqlEngineError):
        deployment.shards[1].client.select(table0, 1)


# -- weak scaling --------------------------------------------------------------------

SCALING_SEED = 7
CLIENTS_PER_SHARD = 2
INSERTS_PER_CLIENT = 6


def _weak_scaling_point(num_shards):
    """Every shard carries the same closed loop (2 clients x 6 inserts
    into a table that hashes to it) on the calibrated cost model, so
    simulated elapsed time stays flat while completed work grows with
    the shard count.  Returns completed inserts per simulated second and
    the deployment."""
    deployment = ShardedDeployment.build(
        SQL_SERVICE, num_shards,
        config=BftConfig(checkpoint_interval=16, batch_max=8),
        network_config=lan_network(SCALING_SEED),
        replica_costs=[PROTOCOL_COSTS] * 4, seed=SCALING_SEED)
    tables = [names[0] for names in _tables_by_shard(num_shards).values()]
    for table in tables:
        deployment.client.create_table(table, ["id", "val"], "id")
    done = Counter()

    def start(client, table, base):
        def issue(_result=None):
            if _result is not None:
                done[client.node_id] += 1
            seq = done[client.node_id]
            if seq < INSERTS_PER_CLIENT:
                client.invoke(
                    canonical(("insert", table, (base + seq, f"w{seq}"))),
                    issue)

        issue()

    started = deployment.scheduler.now
    for shard, table in enumerate(tables):
        for c in range(CLIENTS_PER_SHARD):
            client = deployment.shards[shard].cluster.add_client(
                f"shard{shard}/loadgen{c}", costs=PROTOCOL_COSTS).client
            start(client, table, (c + 1) * 1_000_000)
    total = num_shards * CLIENTS_PER_SHARD * INSERTS_PER_CLIENT
    assert deployment.scheduler.run_until_idle_or(
        lambda: sum(done.values()) == total)
    rate = total / (deployment.scheduler.now - started)
    # Audited through the router: every shard holds exactly its clients'
    # rows (which also extends the digest chains deterministically).
    assert [deployment.client.row_count(table) for table in tables] == (
        [CLIENTS_PER_SHARD * INSERTS_PER_CLIENT] * num_shards)
    return rate, deployment


def test_weak_scaling_sweep_is_pinned_and_deterministic():
    """Independent replication groups exchange no messages, so they
    scale in simulated time by construction; the rates are exact."""
    sweeps = []
    for _ in range(2):
        points = [_weak_scaling_point(n) for n in (1, 2, 4)]
        sweeps.append([(rate, list(d.router.ops_routed),
                        list(d.router.shard_logs)) for rate, d in points])
    assert sweeps[0] == sweeps[1]
    rates = [rate for rate, _, _ in sweeps[0]]
    assert rates == [3594.040864882282, 7156.340542232199,
                     14285.076293783004]
    assert rates[2] / rates[0] >= 3.0
    assert [routed for _, routed, _ in sweeps[0]] == [
        [2], [2, 2], [2, 2, 2, 2]]


# -- the cross-shard transaction path ----------------------------------------------


def test_cross_shard_txn_matches_single_group_execution():
    tables = _tables_by_shard(2)
    ta, tb = tables[0][0], tables[1][0]
    sharded = _sharded_sql(2)
    single = ReplicatedDeployment.build(
        SQL_SERVICE, config=BftConfig(**_FAST), seed=11).client
    for client in (sharded.client, single):
        client.create_table(ta, ["id", "val"], "id")
        client.create_table(tb, ["id", "val"], "id")
        client.insert(ta, [1, "seed-a"])
        client.insert(tb, [1, "seed-b"])
    ops = [canonical(("insert", ta, (2, "atomic-a"))),
           canonical(("insert", tb, (2, "atomic-b"))),
           canonical(("update", ta, 1, (1, "rewritten")))]
    # Sharded: one atomic cross-shard transaction spanning both groups.
    replies = sharded.router.cross_shard_call(ops)
    assert len(replies) == len(ops)
    assert all(decanonical(reply)[0] == "OK" for reply in replies)
    # Single group: the identical sub-op bytes, executed directly
    # through the same channel the service client rides.
    for op in ops:
        assert decanonical(single._channel.call(op))[0] == "OK"
    # The differential: every per-table observable agrees.
    for table in (ta, tb):
        assert sharded.client.scan(table) == single.scan(table)
        assert sharded.client.row_count(table) == single.row_count(table)
        assert sharded.client.select(table, 2) == single.select(table, 2)
    assert sharded.client.select(ta, 1) == (1, "rewritten")


def test_refused_cross_shard_txn_leaves_no_trace():
    tables = _tables_by_shard(2)
    ta, tb = tables[0][0], tables[1][0]
    sharded = _sharded_sql(2)
    client = sharded.client
    client.create_table(ta, ["id", "val"], "id")
    client.create_table(tb, ["id", "val"], "id")
    client.insert(ta, [1, "a"])
    before = (client.scan(ta), client.scan(tb))
    ops = [canonical(("insert", ta, (2, "would-commit"))),
           canonical(("no_such_op", tb, (2, "poison")))]
    with pytest.raises(TxnAborted) as excinfo:
        sharded.router.cross_shard_call(ops)
    assert excinfo.value.refused == [sharded.router.shard_of(tb)]
    assert (client.scan(ta), client.scan(tb)) == before
