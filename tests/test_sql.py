"""BASE-SQL: the §6 future-work extension, engines through full replication."""

import pytest

from repro.bft.config import BftConfig
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment
from repro.sql.engine import (
    BTreeStoreEngine,
    HashStoreEngine,
    SqlEngineError,
)
from repro.sql.service import SQL_SERVICE
from repro.sql.wrapper import SqlConformanceWrapper
from repro.base.state import AbstractStateManager


# -- engines --------------------------------------------------------------------

@pytest.fixture(params=[HashStoreEngine, BTreeStoreEngine],
                ids=lambda c: c.vendor)
def engine(request):
    e = request.param()
    e.create_table("users", ("id", "name", "score"), "id")
    return e


def test_engine_crud(engine):
    engine.insert("users", (1, "ada", 10))
    assert engine.select("users", 1) == (1, "ada", 10)
    assert engine.update("users", 1, (1, "ada", 99))
    assert engine.select("users", 1)[2] == 99
    assert engine.delete("users", 1)
    assert engine.select("users", 1) is None
    assert not engine.delete("users", 1)


def test_engine_duplicate_key(engine):
    engine.insert("users", (1, "a", 0))
    with pytest.raises(SqlEngineError) as err:
        engine.insert("users", (1, "b", 0))
    assert err.value.code == "23000"


def test_engine_schema_enforced(engine):
    with pytest.raises(SqlEngineError):
        engine.insert("users", (1, "too-few"))
    engine.insert("users", (1, "x", 0))
    with pytest.raises(SqlEngineError):
        engine.update("users", 1, (2, "key-change", 0))


def test_engine_unknown_table(engine):
    with pytest.raises(SqlEngineError) as err:
        engine.select("ghost", 1)
    assert err.value.code == "42S02"


def test_engines_scan_orders_differ():
    """The concrete divergence the wrapper must mask."""
    a, b = HashStoreEngine(), BTreeStoreEngine()
    for e in (a, b):
        e.create_table("t", ("k", "v"), "k")
        for k in (3, 1, 2):
            e.insert("t", (k, "v%d" % k))
    assert [r[0] for r in a.scan("t")] == [3, 1, 2]   # insertion order
    assert [r[0] for r in b.scan("t")] == [1, 2, 3]   # key order


# -- wrapper: abstract-state identity ------------------------------------------------


def make_wrapped(engine_cls):
    wrapper = SqlConformanceWrapper(engine_cls(), array_size=64)
    manager = AbstractStateManager(wrapper, branching=8)
    from repro.encoding.canonical import canonical, decanonical

    def op(*parts, read_only=False):
        return decanonical(wrapper.execute(canonical(parts), "c", b"",
                                           read_only=read_only))
    return wrapper, manager, op


def workload(op):
    assert op("create_table", "users", ("id", "name"), "id")[0] == "OK"
    assert op("create_table", "orders", ("oid", "item", "uid"), "oid")[0] \
        == "OK"
    for k in (5, 2, 9):
        assert op("insert", "users", (k, "user%d" % k))[0] == "OK"
    assert op("insert", "orders", ("o1", "book", 5))[0] == "OK"
    assert op("update", "users", 2, (2, "renamed"))[0] == "OK"
    assert op("delete", "users", 9)[0] == "OK"


def test_identical_abstract_state_across_engines():
    state = {}
    scans = {}
    for cls in (HashStoreEngine, BTreeStoreEngine):
        wrapper, _, op = make_wrapped(cls)
        workload(op)
        state[cls.vendor] = [wrapper.get_obj(i) for i in range(64)]
        scans[cls.vendor] = op("scan", "users", read_only=True)
    assert state["hashstore"] == state["btreestore"]
    assert scans["hashstore"] == scans["btreestore"]


def test_put_objs_roundtrip_across_engines():
    src_wrapper, _, src_op = make_wrapped(HashStoreEngine)
    workload(src_op)
    state = {i: src_wrapper.get_obj(i) for i in range(64)}
    dst_wrapper, _, dst_op = make_wrapped(BTreeStoreEngine)
    dst_wrapper.put_objs(state)
    assert [dst_wrapper.get_obj(i) for i in range(64)] == \
        [state[i] for i in range(64)]
    assert dst_op("select", "users", 5, read_only=True) == \
        ("OK", (5, "user5"))
    # The transferred service keeps working.
    assert dst_op("insert", "users", (9, "back"))[0] == "OK"


def test_wrapper_shutdown_restart():
    wrapper, _, op = make_wrapped(HashStoreEngine)
    workload(op)
    before = [wrapper.get_obj(i) for i in range(64)]
    wrapper.shutdown()
    wrapper.restart()
    assert [wrapper.get_obj(i) for i in range(64)] == before
    # Deterministic allocation continues after restart.
    assert op("insert", "users", (11, "post"))[0] == "OK"


def test_wrapper_deterministic_errors():
    _, _, op = make_wrapped(HashStoreEngine)
    assert op("select", "ghost", 1, read_only=True)[:2] == \
        ("ERROR", "42S02")
    op("create_table", "t", ("k",), "k")
    op("insert", "t", (1,))
    assert op("insert", "t", (1,))[:2] == ("ERROR", "23000")
    assert op("select", "t", 99, read_only=True)[:2] == ("ERROR", "02000")
    assert op("insert", "t", (2,), read_only=True)[:2] == ("ERROR", "25006")


def test_drop_table_frees_rows():
    wrapper, _, op = make_wrapped(BTreeStoreEngine)
    op("create_table", "tmp", ("k", "v"), "k")
    for k in range(5):
        op("insert", "tmp", (k, "x"))
    assert len(wrapper.rows) == 5
    op("drop_table", "tmp")
    assert len(wrapper.rows) == 0
    assert op("scan", "tmp", read_only=True)[0] == "ERROR"


# -- full replication ------------------------------------------------------------------

TWO_VENDORS = [HashStoreEngine, BTreeStoreEngine] * 2


def replicated_sql(engine_classes, **bft):
    group = ReplicatedDeployment.build(
        SQL_SERVICE, engine_classes, array_size=64,
        config=BftConfig(n=4, checkpoint_interval=8, **bft))
    return group.cluster, group.client


@pytest.mark.parametrize("count", [3, 7])
def test_backend_list_must_match_the_group_size(count):
    """Neither a bare IndexError (too few) nor silently dropped backends
    (too many): the library's own length check refuses both."""
    with pytest.raises(ValueError, match=f"{count} wrapper factories for n=4"):
        ReplicatedDeployment.build(SQL_SERVICE, [BTreeStoreEngine] * count,
                                   config=BftConfig(n=4))


def test_replicated_sql_n_version():
    """Two engine vendors, four replicas, one relational service."""
    cluster, client = replicated_sql(TWO_VENDORS)
    client.create_table("accounts", ("id", "owner", "balance"), "id")
    for i in (3, 1, 2):
        client.insert("accounts", (i, "owner%d" % i, 100 * i))
    client.update("accounts", 2, (2, "owner2", 999))
    client.delete("accounts", 3)
    assert client.select("accounts", 2) == (2, "owner2", 999)
    assert [r[0] for r in client.scan("accounts")] == [1, 2]
    assert client.row_count("accounts") == 2
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
    # Engines' concrete catalogs/row-ids differ; abstract state agrees.
    vendors = {type(r.state.upcalls.engine).vendor
               for r in cluster.replicas}
    assert vendors == {"hashstore", "btreestore"}


def test_replicated_matches_unreplicated():
    cluster, replicated = replicated_sql([HashStoreEngine] * 4)
    direct = UnreplicatedDeployment.build(SQL_SERVICE, HashStoreEngine).client
    for client in (replicated, direct):
        client.create_table("t", ("k", "v"), "k")
        for k in (7, 3, 5):
            client.insert("t", (k, "val%d" % k))
        client.delete("t", 3)
    assert replicated.scan("t") == direct.scan("t")
    assert replicated.row_count("t") == direct.row_count("t")


def test_replicated_sql_survives_recovery():
    cluster, client = replicated_sql(TWO_VENDORS, reboot_delay=0.3)
    client.create_table("t", ("k", "v"), "k")
    for k in range(10):
        client.insert("t", (k, "v%d" % k))
    cluster.run(1.0)
    victim = cluster.replicas[1]
    victim.recovery.start_recovery()
    cluster.run(20.0)
    assert not victim.recovery.recovering
    client.insert("t", (10, "post-recovery"))
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1


# -- key-type virtualisation: O(1) index, same answers ---------------------------

ENGINES = [HashStoreEngine, BTreeStoreEngine]


def key_type_by_scan(wrapper, table):
    """The specification the index replaces: the key type of the live
    row with the lowest abstract index (a sort plus a linear scan)."""
    for row_key, _ in wrapper.rows.items():
        if row_key[0] == table:
            return type(row_key[1]).__name__
    return None


def on_both_engines(script):
    """Run ``script(wrapper, op)`` on each engine; the replies it
    returns must not depend on the engine."""
    replies = []
    for cls in ENGINES:
        wrapper, _, op = make_wrapped(cls)
        assert op("create_table", "t", ("k", "v"), "k")[0] == "OK"
        replies.append(script(wrapper, op))
    assert replies[0] == replies[1]
    return replies[0]


def test_mixed_key_refused_after_deleting_the_lowest_index_row():
    def script(wrapper, op):
        for k in (1, 2, 3):
            op("insert", "t", (k, "v"))
        assert wrapper.rows.index_of(("t", 1)) == 1     # lowest slot
        return (op("delete", "t", 1), op("insert", "t", ("a", "v")),
                op("insert", "t", (4, "v")))
    deleted, mixed, same = on_both_engines(script)
    assert deleted == ("OK",) and same[0] == "OK"
    assert mixed[:2] == ("ERROR", "22018")


def test_key_type_resets_once_every_row_is_deleted():
    def script(wrapper, op):
        for k in (1, 2):
            op("insert", "t", (k, "v"))
        for k in (1, 2):
            op("delete", "t", k)
        return (op("insert", "t", ("a", "v")), op("insert", "t", (3, "v")),
                op("insert", "t", ("b", "v")))
    other_type, mixed, same = on_both_engines(script)
    assert other_type[0] == "OK" and same[0] == "OK"
    assert mixed[:2] == ("ERROR", "22018")


def test_delete_by_an_equal_key_of_another_type_counts_the_stored_key():
    """``1``, ``1.0`` and ``True`` are one dict key: a delete spelled
    either way removes the int row, and the index must forget an *int*
    (the type that was linked), as the sorted scan would."""
    def script(wrapper, op):
        replies = []
        for spelling in (1.0, True):
            op("insert", "t", (1, "v"))
            op("insert", "t", (2, "v"))
            replies.append(op("delete", "t", spelling))
            assert wrapper.rows.key_types == {"t": {"int": 1}}
            assert wrapper._key_type_of("t") == key_type_by_scan(wrapper, "t")
            assert op("row_count", "t", read_only=True) == ("OK", 1)
            replies.append(op("delete", "t", 2.0))
            assert wrapper.rows.key_types == {}
        return replies + [op("insert", "t", ("a", "v")),
                          op("insert", "t", (1.0, "v"))]
    *deleted, other_type, mixed = on_both_engines(script)
    assert deleted == [("OK",)] * 4          # the parent's replies
    assert other_type[0] == "OK" and mixed[:2] == ("ERROR", "22018")


def test_put_objs_moving_an_equal_key_of_another_type_counts_the_stored_key():
    """A checkpoint row keyed ``1.0`` lands on a slot while the local
    table still holds ``1`` elsewhere: the move unlinks an int."""
    donor, _, donor_op = make_wrapped(HashStoreEngine)
    donor_op("create_table", "t", ("k", "v"), "k")
    donor_op("insert", "t", (1.0, "new"))

    def script(wrapper, op):
        op("insert", "t", (7, "v"))
        op("insert", "t", (1, "v"))
        wrapper.put_objs({1: donor.get_obj(1)})
        assert wrapper.rows.key_types == {"t": {"float": 1}}
        assert wrapper._key_type_of("t") == key_type_by_scan(wrapper, "t")
        return (op("scan", "t", read_only=True), op("insert", "t", (3, "v")))
    scan, mixed = on_both_engines(script)
    assert scan == ("OK", ((1.0, "new"),))
    assert mixed[:2] == ("ERROR", "22018")


def test_key_type_resets_on_drop_and_recreate():
    def script(wrapper, op):
        op("insert", "t", (1, "v"))
        op("drop_table", "t")
        op("create_table", "t", ("k", "v"), "k")
        assert wrapper.rows.key_types == {}
        return (op("insert", "t", ("a", "v")), op("insert", "t", (1, "v")))
    other_type, mixed = on_both_engines(script)
    assert other_type[0] == "OK"
    assert mixed[:2] == ("ERROR", "22018")


def test_key_type_follows_put_objs():
    """State transfer replaces int-keyed rows by str-keyed ones in the
    same slots (and frees one): the index must follow the new state."""
    donor, _, donor_op = make_wrapped(HashStoreEngine)
    donor_op("create_table", "t", ("k", "v"), "k")
    for k in ("a", "b"):
        donor_op("insert", "t", (k, "v"))
    state = {i: donor.get_obj(i) for i in range(64)}

    def script(wrapper, op):
        for k in (1, 2, 3):
            op("insert", "t", (k, "v"))
        wrapper.put_objs(state)
        assert wrapper.rows.key_types == {"t": {"str": 2}}
        return (op("insert", "t", (9, "v")), op("insert", "t", ("c", "v")))
    mixed, same = on_both_engines(script)
    assert mixed[:2] == ("ERROR", "22018") and same[0] == "OK"


def test_put_objs_replaces_int_rows_by_str_rows_in_place_on_the_btree():
    """The engine-side reason departing rows leave first: the B-tree
    store cannot order ``"a"`` next to the ints still in slots 2 and 3."""
    donor, _, donor_op = make_wrapped(HashStoreEngine)
    donor_op("create_table", "t", ("k", "v"), "k")
    for k in ("a", "b", "c"):
        donor_op("insert", "t", (k, "new"))
    state = {i: donor.get_obj(i) for i in range(64)}
    wrapper, _, op = make_wrapped(BTreeStoreEngine)
    op("create_table", "t", ("k", "v"), "k")
    for k in (1, 2, 3):
        op("insert", "t", (k, "old"))
    wrapper.put_objs(state)
    assert [wrapper.get_obj(i) for i in range(64)] == \
        [state[i] for i in range(64)]
    assert op("scan", "t", read_only=True) == \
        ("OK", (("a", "new"), ("b", "new"), ("c", "new")))


def test_key_type_survives_shutdown_and_restart():
    def script(wrapper, op):
        for k in ("a", "b"):
            op("insert", "t", (k, "v"))
        op("delete", "t", "a")
        wrapper.shutdown()
        wrapper.restart()
        assert wrapper.rows.key_types == {"t": {"str": 1}}
        return (op("insert", "t", (1, "v")), op("insert", "t", ("c", "v")))
    mixed, same = on_both_engines(script)
    assert mixed[:2] == ("ERROR", "22018") and same[0] == "OK"


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.vendor)
def test_key_type_index_matches_the_scan_in_every_reachable_state(engine_cls):
    """Random inserts (of both key types), deletes, drops, state
    transfers from a twin and restarts: after every step the index
    answers exactly what the sorted scan answers, for every table."""
    import random
    rng = random.Random(2001)
    wrapper, _, op = make_wrapped(engine_cls)
    twin, _, twin_op = make_wrapped(HashStoreEngine)
    tables = ("t0", "t1", "t2")
    live = {t: [] for t in tables}

    def check():
        for t in tables + ("ghost",):
            assert wrapper._key_type_of(t) == key_type_by_scan(wrapper, t)

    for step in range(600):
        t = rng.choice(tables)
        roll = rng.random()
        if roll < 0.08:
            op("create_table", t, ("k", "v"), "k")
        elif roll < 0.55:
            key = rng.choice([rng.randrange(40), "s%d" % rng.randrange(40),
                              b"b", True, None])
            if op("insert", t, (key, "v"))[0] == "OK":
                live[t].append(key)
        elif roll < 0.85 and live[t]:
            key = live[t].pop(rng.randrange(len(live[t])))
            if type(key) is int and rng.random() < 0.3:
                key = float(key)        # an equal key of another type
            assert op("delete", t, key)[0] == "OK"
        elif roll < 0.90:
            if op("drop_table", t)[0] == "OK":
                live[t] = []
        elif roll < 0.95:
            # Install an unrelated state, as a transfer or rollback does.
            twin_op("create_table", t, ("k", "v"), "k")
            twin_op("insert", t, ("s%d" % step, "v"))
            wrapper.put_objs({i: twin.get_obj(i) for i in range(64)})
            for name in tables:
                live[name] = [k for (tab, k), _ in wrapper.rows.items()
                              if tab == name]
        else:
            wrapper.shutdown()
            wrapper.restart()
        check()
    assert any(live.values())
