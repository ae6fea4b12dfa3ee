"""Thor wrapper conversion edge cases: VQ eviction, session churn,
threshold transfer, directory rebuilds."""

from repro.encoding.canonical import canonical, decanonical
from repro.thor.objects import ObjectRecord
from repro.thor.orefs import make_oref
from repro.thor.pages import Page
from repro.thor.server import ThorServer, ThorServerConfig
from repro.thor.wrapper import ThorConformanceWrapper
from repro.base.state import AbstractStateManager
from repro.base.nondet import ClockValue

NUM_PAGES = 8


def rec(value):
    return ObjectRecord("Item", (value,)).encode()


class Harness:
    def __init__(self, seed=0, vq_capacity=3):
        self.clock = 0.0
        server = ThorServer(ThorServerConfig(seed=seed,
                                             vq_capacity=vq_capacity))
        for pagenum in range(4):
            server.load_page(Page(pagenum, {o: rec(o) for o in range(4)}))
        self.wrapper = ThorConformanceWrapper(server, num_pages=NUM_PAGES,
                                              max_clients=4,
                                              clock=lambda: self.clock)
        self.manager = AbstractStateManager(self.wrapper, branching=8)

    def ok(self, *parts):
        self.clock += 1.0
        result = decanonical(self.wrapper.execute(
            canonical(parts), "x", ClockValue.encode(self.clock)))
        assert result[0] == 0, result
        return result[1:]

    def state(self):
        return [self.wrapper.get_obj(i)
                for i in range(self.wrapper.num_objects)]


def commit(h, client, n, oref):
    return h.ok("commit", client, n * 1_000_000 + 1, (oref,),
                ((oref, rec("v%d" % n)),), (), ())


def test_vq_eviction_threshold_in_meta_object():
    h = Harness(vq_capacity=3)
    h.ok("start_session", "alice")
    for n in range(2, 7):  # 5 commits through a 3-entry VQ: evictions
        committed, _ = commit(h, "alice", n, make_oref(0, n % 4))
        assert committed
    (threshold,) = decanonical(h.wrapper.get_obj(0))
    assert threshold > 0  # evictions raised the abort threshold
    # The threshold transfers: a fresh twin must agree on future aborts.
    twin = Harness(seed=9, vq_capacity=3)
    twin.wrapper.put_objs({i: blob for i, blob in enumerate(h.state())})
    assert twin.state() == h.state()
    # A too-old timestamp aborts identically on both.
    for target in (h, twin):
        committed, _ = target.ok(
            "commit", "alice", threshold - 1,
            (make_oref(1, 0),), ((make_oref(1, 0), rec("late")),), (), ())
        assert not committed


def test_vq_slot_reuse_after_eviction_stays_consistent():
    h1, h2 = Harness(seed=1, vq_capacity=2), Harness(seed=2, vq_capacity=2)
    for h in (h1, h2):
        h.ok("start_session", "alice")
        for n in range(2, 8):
            commit(h, "alice", n, make_oref(n % 4, n % 4))
    assert h1.state() == h2.state()


def test_session_churn_reuses_client_numbers():
    h = Harness()
    assert h.ok("start_session", "a") == (0,)
    assert h.ok("start_session", "b") == (1,)
    h.ok("end_session", "a")
    assert h.ok("start_session", "c") == (0,)  # lowest free number
    # The IS area reflects the reuse.
    area = decanonical(h.wrapper.get_obj(h.wrapper.is_index(0)))
    assert area[0] == "c"


def test_directory_area_drops_ended_sessions():
    h = Harness()
    h.ok("start_session", "a")
    h.ok("fetch", "a", 2, (), ())
    assert decanonical(h.wrapper.get_obj(h.wrapper.dir_index(2)))[0] == (0,)
    h.ok("end_session", "a")
    assert decanonical(h.wrapper.get_obj(h.wrapper.dir_index(2)))[0] == ()


def test_put_objs_clears_removed_clients():
    src = Harness(seed=3)
    src.ok("start_session", "alice")
    dst = Harness(seed=4)
    dst.ok("start_session", "alice")
    dst.ok("start_session", "bob")   # extra client absent from src
    dst.ok("fetch", "bob", 1, (), ())
    delta = {i: blob for i, blob in enumerate(src.state())
             if blob != dst.state()[i]}
    dst.wrapper.put_objs(delta)
    assert dst.state() == src.state()
    assert "bob" not in dst.wrapper.clients


def test_put_objs_moves_a_renumbered_client():
    """The source renumbers ``alice`` from 1 to 0; a replica that still
    holds the old numbering must move the session, not lose it."""
    src, dst = Harness(seed=3), Harness(seed=4)
    for h in (src, dst):
        assert h.ok("start_session", "bob") == (0,)
        assert h.ok("start_session", "alice") == (1,)
    src.ok("end_session", "alice")
    src.ok("end_session", "bob")
    assert src.ok("start_session", "alice") == (0,)
    src.ok("fetch", "alice", 1, (), ())
    delta = {i: blob for i, blob in enumerate(src.state())
             if blob != dst.state()[i]}
    dst.wrapper.put_objs(delta)
    assert dst.state() == src.state()
    for h in (src, dst):
        h.ok("fetch", "alice", 2, (), ())
    assert dst.state() == src.state()


def test_unknown_op_is_deterministic_error():
    h = Harness()
    h.clock += 1.0
    result = decanonical(h.wrapper.execute(
        canonical(("frobnicate", 1)), "x", ClockValue.encode(h.clock)))
    assert result[0] == 1
