"""AbstractStateManager: copy-on-write checkpoints, chain lookup, transfer."""

import pytest

from repro.base.state import AbstractStateManager
from repro.base.upcalls import Upcalls
from repro.crypto.digest import digest
from repro.encoding.canonical import canonical, decanonical


class ToyWrapper(Upcalls):
    """A trivial conformance wrapper over a list-of-bytes 'service'."""

    def __init__(self, size=16):
        super().__init__()
        self._size = size
        self.concrete = [b""] * size
        self.put_calls = []

    @property
    def num_objects(self):
        return self._size

    def execute(self, op, client_id, nondet, read_only=False):
        kind, *rest = decanonical(op)
        if kind == "set":
            index, value = rest
            self.library.modify(index)
            self.concrete[index] = value
            return b"ok"
        if kind == "get":
            return self.concrete[rest[0]]
        raise ValueError(kind)

    def get_obj(self, index):
        return self.concrete[index]

    def put_objs(self, objects):
        self.put_calls.append(sorted(objects))
        for index, value in objects.items():
            self.concrete[index] = value


def op_set(i, v):
    return canonical(("set", i, v))


def run_op(mgr, op, seq):
    return mgr.execute(op, "c", seq, seq, b"")


def test_modify_required_before_mutation_saves_preimage():
    mgr = AbstractStateManager(ToyWrapper(), branching=4)
    mgr.take_checkpoint(0)
    run_op(mgr, op_set(2, b"v1"), 1)
    # The pre-image (empty) is retrievable at checkpoint 0.
    assert mgr.object_at(0, 2) == b""
    mgr.take_checkpoint(4)
    assert mgr.object_at(4, 2) == b"v1"
    assert mgr.object_at(0, 2) == b""


def test_checkpoint_roots_differ_when_state_differs():
    m1 = AbstractStateManager(ToyWrapper(), branching=4)
    m2 = AbstractStateManager(ToyWrapper(), branching=4)
    m1.take_checkpoint(0)
    m2.take_checkpoint(0)
    run_op(m1, op_set(0, b"a"), 1)
    run_op(m2, op_set(0, b"b"), 1)
    assert m1.take_checkpoint(4) != m2.take_checkpoint(4)


def test_identical_histories_identical_roots():
    """Determinism invariant: same ops -> byte-identical roots."""
    m1 = AbstractStateManager(ToyWrapper(), branching=4)
    m2 = AbstractStateManager(ToyWrapper(), branching=4)
    for mgr in (m1, m2):
        mgr.take_checkpoint(0)
        for i in range(8):
            run_op(mgr, op_set(i % 3, b"x%d" % i), i + 1)
        mgr.take_checkpoint(8)
    assert m1.checkpoint_root(8) == m2.checkpoint_root(8)


def test_object_at_chain_lookup_across_multiple_checkpoints():
    mgr = AbstractStateManager(ToyWrapper(), branching=4)
    mgr.take_checkpoint(0)
    run_op(mgr, op_set(1, b"epoch1"), 1)
    mgr.take_checkpoint(4)
    run_op(mgr, op_set(1, b"epoch2"), 5)
    mgr.take_checkpoint(8)
    run_op(mgr, op_set(1, b"epoch3"), 9)  # not yet checkpointed
    assert mgr.object_at(0, 1) == b""
    assert mgr.object_at(4, 1) == b"epoch1"
    assert mgr.object_at(8, 1) == b"epoch2"


def test_unmodified_object_served_from_current_state():
    mgr = AbstractStateManager(ToyWrapper(), branching=4)
    run_op(mgr, op_set(5, b"stable"), 1)
    mgr.take_checkpoint(4)
    # 5 unmodified since checkpoint 4: chain falls through to get_obj.
    assert mgr.object_at(4, 5) == b"stable"


def test_discard_checkpoints_below():
    mgr = AbstractStateManager(ToyWrapper(), branching=4)
    mgr.take_checkpoint(0)
    run_op(mgr, op_set(0, b"a"), 1)
    mgr.take_checkpoint(4)
    run_op(mgr, op_set(0, b"b"), 5)
    mgr.take_checkpoint(8)
    mgr.discard_checkpoints_below(8)
    assert mgr.checkpoint_root(0) is None
    assert mgr.checkpoint_root(4) is None
    assert mgr.checkpoint_root(8) is not None
    assert mgr.object_at(4, 0) is None


def test_apply_fetched_invokes_put_objs_once_with_vector():
    """put_objs receives the whole consistent vector in one call (paper:
    dependencies between objects require this)."""
    donor = AbstractStateManager(ToyWrapper(), branching=4)
    donor.take_checkpoint(0)
    for i in range(3):
        run_op(donor, op_set(i, b"d%d" % i), i + 1)
    root = donor.take_checkpoint(4)

    wrapper = ToyWrapper()
    fetcher = AbstractStateManager(wrapper, branching=4)
    objects = {i: (donor.object_at(4, i), 4) for i in range(3)}
    assert fetcher.apply_fetched(4, root, objects)
    assert wrapper.put_calls == [[0, 1, 2]]
    assert wrapper.concrete[:3] == [b"d0", b"d1", b"d2"]
    assert fetcher.checkpoint_root(4) == root


def test_apply_fetched_rejects_wrong_root():
    wrapper = ToyWrapper()
    mgr = AbstractStateManager(wrapper, branching=4)
    assert not mgr.apply_fetched(4, b"\x00" * 32, {0: (b"junk", 4)})


def test_meta_children_served_from_snapshot_not_live_tree():
    mgr = AbstractStateManager(ToyWrapper(), branching=4)
    run_op(mgr, op_set(0, b"at4"), 1)
    mgr.take_checkpoint(4)
    children_at_4 = mgr.meta_children(4, 0, 0)
    run_op(mgr, op_set(0, b"later"), 5)
    mgr.refresh_dirty()  # live tree now reflects "later"
    assert mgr.meta_children(4, 0, 0) == children_at_4


def test_modify_out_of_range_raises():
    mgr = AbstractStateManager(ToyWrapper(size=4), branching=4)
    with pytest.raises(IndexError):
        mgr.modify(7)


def test_modify_idempotent_within_interval():
    wrapper = ToyWrapper()
    mgr = AbstractStateManager(wrapper, branching=4)
    mgr.take_checkpoint(0)
    run_op(mgr, op_set(1, b"one"), 1)
    run_op(mgr, op_set(1, b"two"), 2)
    # Pre-image at checkpoint 0 is the original empty value, not "one".
    assert mgr.object_at(0, 1) == b""
    mgr.take_checkpoint(4)
    assert mgr.object_at(4, 1) == b"two"


def test_mark_all_dirty_then_refresh_detects_concrete_corruption():
    wrapper = ToyWrapper()
    mgr = AbstractStateManager(wrapper, branching=4)
    run_op(mgr, op_set(3, b"good"), 1)
    root = mgr.take_checkpoint(4)
    wrapper.concrete[3] = b"CORRUPT"  # silent corruption, no modify()
    assert mgr.tree.root_digest == root  # undetected so far
    mgr.mark_all_dirty()
    mgr.refresh_dirty()
    assert mgr.tree.root_digest != root  # now visible


def test_lm_advances_only_at_checkpoints():
    mgr = AbstractStateManager(ToyWrapper(), branching=4)
    mgr.take_checkpoint(0)
    run_op(mgr, op_set(2, b"x"), 1)
    assert mgr.tree.leaf_lm(2) == 0  # not yet checkpointed
    mgr.take_checkpoint(4)
    assert mgr.tree.leaf_lm(2) == 4


def test_one_charge_binding_carries_checkpoints_and_the_wrapper():
    """The manager is its wrapper's library handle: pointing its one
    ``charge`` at a sink sends the sink both the manager's checkpoint
    work and the wrapper's ``library.charge``."""
    wrapper = ToyWrapper()
    mgr = AbstractStateManager(wrapper, branching=4, checkpoint_cost=1.0)
    charged = []
    mgr.charge = charged.append
    run_op(mgr, op_set(1, b"x"), 1)
    mgr.take_checkpoint(4)
    wrapper.library.charge(0.5)
    assert charged == [64 / 1024.0, 0.5]
    assert wrapper.library is mgr
