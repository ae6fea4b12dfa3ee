"""Unit and property tests for the hierarchical state partition tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bft.parttree import PartitionTree
from repro.crypto.digest import digest


def test_single_object_tree():
    tree = PartitionTree(1, branching=8)
    tree.set_leaf(0, digest(b"x"), 1)
    assert tree.root_digest == PartitionTree.combine([(digest(b"x"), 1)])


def test_root_changes_when_any_leaf_changes():
    tree = PartitionTree(100, branching=4)
    before = tree.root_digest
    tree.set_leaf(57, digest(b"v"), 3)
    assert tree.root_digest != before


def test_same_leaves_same_root():
    t1 = PartitionTree(64, branching=8)
    t2 = PartitionTree(64, branching=8)
    for i in range(0, 64, 7):
        t1.set_leaf(i, digest(b"%d" % i), i)
        t2.set_leaf(i, digest(b"%d" % i), i)
    assert t1.root_digest == t2.root_digest


def test_lm_affects_root():
    """The last-modified seq is committed to, not just the value digest."""
    t1 = PartitionTree(8, branching=4)
    t2 = PartitionTree(8, branching=4)
    t1.set_leaf(0, digest(b"v"), 1)
    t2.set_leaf(0, digest(b"v"), 2)
    assert t1.root_digest != t2.root_digest


def test_children_info_verifies_against_parent():
    tree = PartitionTree(64, branching=8)
    for i in range(64):
        tree.set_leaf(i, digest(b"obj%d" % i), i % 5)
    snap = tree.snapshot()
    # Walk every internal node: combine(children) must equal node digest.
    for level in range(len(snap.digests) - 1):
        for index in range(len(snap.digests[level])):
            children = snap.children_info(level, index, tree.branching)
            assert children is not None
            assert PartitionTree.combine(children) == snap.digests[level][index]


def test_children_info_out_of_range_returns_none():
    snap = PartitionTree(10, branching=4).snapshot()
    assert snap.children_info(len(snap.digests) - 1, 0, 4) is None
    assert snap.children_info(0, 99, 4) is None


def test_snapshot_immutable_under_later_updates():
    tree = PartitionTree(16, branching=4)
    tree.set_leaf(3, digest(b"a"), 1)
    snap = tree.snapshot()
    root_before = snap.root_digest
    tree.set_leaf(3, digest(b"b"), 2)
    assert snap.root_digest == root_before
    assert tree.root_digest != root_before
    assert snap.children_info(0, 0, 4) is not None


def test_non_power_of_branching_sizes():
    for size in (1, 2, 5, 63, 64, 65, 1000):
        tree = PartitionTree(size, branching=8)
        tree.set_leaf(size - 1, digest(b"end"), 1)
        assert isinstance(tree.root_digest, bytes)
        # Leaf row has exactly `size` entries.
        assert len(tree.snapshot().digests[tree.leaf_level]) == size


def test_set_leaf_out_of_range():
    tree = PartitionTree(4, branching=4)
    with pytest.raises(IndexError):
        tree.set_leaf(4, digest(b"x"), 0)


def test_invalid_construction():
    with pytest.raises(ValueError):
        PartitionTree(0)
    with pytest.raises(ValueError):
        PartitionTree(4, branching=1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.binary(min_size=1, max_size=8),
                          st.integers(0, 100)), max_size=40),
       st.sampled_from([2, 4, 8, 16]))
def test_incremental_equals_batch_rebuild(updates, branching):
    """Applying updates incrementally (with refreshes interleaved) yields
    the same root as applying them all at once."""
    incremental = PartitionTree(64, branching=branching)
    for i, (idx, value, lm) in enumerate(updates):
        incremental.set_leaf(idx, digest(value), lm)
        if i % 3 == 0:
            incremental.refresh()
    batch = PartitionTree(64, branching=branching)
    final = {}
    for idx, value, lm in updates:
        final[idx] = (digest(value), lm)
    for idx, (d, lm) in final.items():
        batch.set_leaf(idx, d, lm)
    assert incremental.root_digest == batch.root_digest


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.sampled_from([2, 8, 64]))
def test_every_leaf_reachable_from_root_walk(size, branching):
    """BFS from the root via children_info reaches exactly the leaf row."""
    tree = PartitionTree(size, branching=branching)
    for i in range(size):
        tree.set_leaf(i, digest(b"leaf%d" % i), 0)
    snap = tree.snapshot()
    found = set()
    queue = [(0, 0)]
    while queue:
        level, index = queue.pop()
        children = snap.children_info(level, index, branching)
        if children is None:
            continue
        child_level = level + 1
        for off in range(len(children)):
            child_index = index * branching + off
            if child_level == tree.leaf_level:
                found.add(child_index)
            else:
                queue.append((child_level, child_index))
    assert found == set(range(size))
