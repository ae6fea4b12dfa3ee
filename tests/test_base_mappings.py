"""The reusable mapping library (paper §6 future work)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.base.mappings import KeyedArrayMapping, SlotAllocator


def test_allocator_lowest_free_first():
    alloc = SlotAllocator(8, reserved=1)
    a = alloc.allocate()
    alloc.commit(a)
    b = alloc.allocate()
    alloc.commit(b)
    assert (a, b) == (1, 2)


def test_allocator_generation_bumps_on_reuse():
    alloc = SlotAllocator(4, reserved=0)
    index = alloc.allocate()
    assert alloc.commit(index) == 1
    alloc.release(index)
    again = alloc.allocate()
    assert again == index
    assert alloc.commit(again) == 2


def test_allocator_rollback_restores_slot_without_gen_bump():
    alloc = SlotAllocator(4)
    index = alloc.allocate()
    alloc.rollback(index)
    assert alloc.generation(index) == 0
    assert alloc.allocate() == index


def test_allocator_rollback_ignores_committed():
    alloc = SlotAllocator(4)
    index = alloc.allocate()
    alloc.commit(index)
    alloc.rollback(index)  # no-op
    assert alloc.is_used(index)


def test_allocator_reserved_slots_never_allocated():
    alloc = SlotAllocator(3, reserved=1)
    assert alloc.allocate() == 1
    assert alloc.allocate() == 2
    with pytest.raises(IndexError):
        alloc.allocate()
    with pytest.raises(ValueError):
        alloc.release(0)


def test_mapping_assign_release_roundtrip():
    mapping = KeyedArrayMapping(8, reserved=1)
    index, gen = mapping.assign(("t", 1))
    assert (index, gen) == (1, 1)
    assert mapping.index_of(("t", 1)) == 1
    assert mapping.key_of(1) == ("t", 1)
    assert mapping.release(("t", 1)) == 1
    assert mapping.index_of(("t", 1)) is None
    index2, gen2 = mapping.assign(("t", 2))
    assert (index2, gen2) == (1, 2)


def test_mapping_duplicate_key_rejected():
    mapping = KeyedArrayMapping(4)
    mapping.assign("k")
    with pytest.raises(KeyError):
        mapping.assign("k")


def test_mapping_reserve_bind_rollback():
    mapping = KeyedArrayMapping(4)
    index = mapping.reserve()
    mapping.rollback(index)
    index2 = mapping.reserve()
    assert index2 == index
    assert mapping.bind("x", index2) == 1


def test_mapping_install_overrides():
    mapping = KeyedArrayMapping(8)
    mapping.assign("a")
    mapping.install("b", 0, 5)      # transfer says slot 0 now holds "b"
    assert mapping.key_of(0) == "b"
    assert mapping.index_of("a") is None
    assert mapping.generation(0) == 5
    mapping.install(None, 0, 6)     # and then it is freed
    assert mapping.key_of(0) is None
    # Freed slot is allocatable again with the installed generation base.
    index = mapping.reserve()
    assert index == 0
    assert mapping.bind("c", index) == 7


def test_allocator_heap_never_outgrows_the_array():
    """Transfers free slots that are already free and install keys over
    queued ones; no slot is queued twice, and the lowest still comes
    first."""
    mapping = KeyedArrayMapping(7)
    for gen in range(5):
        for index in range(7):
            mapping.install(None, index, gen)
        mapping.install("k", 3, gen)
        mapping.release("k")
        assert len(mapping.allocator._free) <= 7
    assert [mapping.reserve() for _ in range(7)] == list(range(7))


def test_mapping_save_load_roundtrip():
    mapping = KeyedArrayMapping(16, reserved=2)
    mapping.assign(("users", 5))
    mapping.assign(("users", 7))
    mapping.release(("users", 5))
    mapping.assign(("orders", "x"))
    blob = mapping.save()
    loaded = KeyedArrayMapping.load(blob)
    assert loaded.index_of(("users", 7)) == mapping.index_of(("users", 7))
    assert loaded.index_of(("orders", "x")) == \
        mapping.index_of(("orders", "x"))
    assert loaded.index_of(("users", 5)) is None
    # Deterministic continuation: both allocate the same next slot/gen.
    a = mapping.assign(("next", 1))
    b = loaded.assign(("next", 1))
    assert a == b


ALLOCATOR_OPS = ("allocate", "commit", "release", "rollback",
                 "set_generation")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2),
       st.lists(st.tuples(st.sampled_from(ALLOCATOR_OPS), st.integers(0, 8),
                          st.integers(0, 3), st.booleans()), max_size=60))
def test_mapping_determinism_property(size, reserved, ops):
    """Two mappings fed the same allocator ops stay identical, and every
    step agrees with a brute-force model: ``allocate`` returns the lowest
    index that is not reserved, pending or committed."""
    reserved = min(reserved, size)
    mappings = [KeyedArrayMapping(size, reserved) for _ in range(2)]
    allocators = [mapping.allocator for mapping in mappings]
    used = set(range(reserved))     # reserved, pending or committed
    pending = set()
    gens = [0] * size
    for op, pick, gen, flag in ops:
        index = pick % size
        if op == "allocate":
            lowest = min(set(range(size)) - used, default=None)
            for alloc in allocators:
                if lowest is None:
                    with pytest.raises(IndexError):
                        alloc.allocate()
                else:
                    assert alloc.allocate() == lowest
            if lowest is not None:
                used.add(lowest)
                pending.add(lowest)
        elif op == "commit":
            if not pending:
                continue
            index = sorted(pending)[pick % len(pending)]
            pending.discard(index)
            gens[index] += 1
            assert [alloc.commit(index) for alloc in allocators] == \
                [gens[index]] * 2
        elif op == "release":
            for alloc in allocators:
                if index < reserved:
                    with pytest.raises(ValueError):
                        alloc.release(index)
                else:
                    alloc.release(index)
            if index >= reserved:
                used.discard(index)
                pending.discard(index)
        elif op == "rollback":
            for alloc in allocators:
                alloc.rollback(index)
            if index in pending:
                used.discard(index)
                pending.discard(index)
        else:
            for alloc in allocators:
                alloc.set_generation(index, gen, used=flag)
            gens[index] = gen
            pending.discard(index)
            if flag:
                used.add(index)
            elif index >= reserved:
                used.discard(index)
        for alloc in allocators:
            assert [alloc.is_used(i) for i in range(size)] == \
                [i in used for i in range(size)]
            assert alloc.generations == gens
            assert len(alloc._free) <= size
    assert mappings[0].save() == mappings[1].save()
