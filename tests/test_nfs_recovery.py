"""Wrapper-level recovery (paper §3.1.4): shutdown, restart, and file-
handle reconstruction from the <fsid,fileid>→oid map."""

import pytest

from repro.nfs.backends.vendors import FreeBsdUfsBackend, LinuxExt2Backend
from repro.nfs.backends.faulty import LeakyBackend
from repro.nfs.spec import ROOT_OID, AbstractSpecConfig
from repro.nfs.wrapper import NfsConformanceWrapper
from repro.errors import StateTransferError
from tests.test_nfs_wrapper import (
    SATTR_DIR,
    SATTR_FILE,
    SPEC,
    WrapperHarness,
    standard_workload,
)


def test_shutdown_restart_preserves_abstract_state_stable_handles():
    h = WrapperHarness(LinuxExt2Backend)
    standard_workload(h)
    before = h.abstract_state()
    assert h.wrapper.shutdown() > 0
    assert h.wrapper.restart() > 0
    assert h.abstract_state() == before


def test_restart_reresolves_invalidated_handles():
    """FreeBSD restarts invalidate every handle; get_obj must walk the
    directory tree re-deriving them from fileids."""
    h = WrapperHarness(FreeBsdUfsBackend, boot_salt=42)
    standard_workload(h)
    before = h.abstract_state()
    h.wrapper.shutdown()
    h.wrapper.restart()
    # All non-root handles were dropped.
    dropped = [e.fh for e in h.wrapper.rep.entries[1:] if not e.is_free]
    assert all(fh is None for fh in dropped)
    assert h.abstract_state() == before
    # Handles were filled back in during the walk.
    refilled = [e.fh for e in h.wrapper.rep.entries if not e.is_free]
    assert all(fh is not None for fh in refilled)


def test_service_usable_after_restart():
    h = WrapperHarness(FreeBsdUfsBackend, boot_salt=7)
    standard_workload(h)
    h.wrapper.shutdown()
    h.wrapper.restart()
    dir_fh = h.ok("lookup", ROOT_OID, "docs", read_only=True)[0]
    f = h.ok("lookup", dir_fh, "a.txt", read_only=True)[0]
    assert h.ok("read", f, 0, 100, read_only=True)[0] == b"contents of a"
    h.ok("write", f, 0, b"post-restart")


def test_restart_rejuvenates_leaky_backend():
    leaky_box = {}

    class Harness(WrapperHarness):
        def __init__(self):
            self.clock = 0.0
            inner = LinuxExt2Backend(clock=lambda: self.clock)
            leaky = LeakyBackend(inner, leak_per_op=1, limit=10**9)
            leaky_box["leaky"] = leaky
            self.wrapper = NfsConformanceWrapper(leaky, spec=SPEC,
                                                 clock=lambda: self.clock)
            from repro.base.state import AbstractStateManager
            self.manager = AbstractStateManager(self.wrapper, branching=8)
            self.seq = 0

    h = Harness()
    h.ok("create", ROOT_OID, "f", SATTR_FILE)
    before = leaky_box["leaky"].leaked
    assert before > 0
    h.wrapper.shutdown()
    h.wrapper.restart()
    # The leak was reset; only the restart's own few ops re-accumulated.
    assert leaky_box["leaky"].leaked < before
    assert leaky_box["leaky"].leaked <= 5


def test_parent_chain_loop_detected():
    """Corrupted saved state with a parent cycle must raise, not hang."""
    h = WrapperHarness(FreeBsdUfsBackend, boot_salt=3)
    h.ok("mkdir", ROOT_OID, "a", SATTR_DIR)
    a_fh = h.ok("lookup", ROOT_OID, "a", read_only=True)[0]
    h.ok("mkdir", a_fh, "b", SATTR_DIR)
    h.wrapper.shutdown()
    h.wrapper.restart()
    # Corrupt the parent chain: make the two dirs each other's parent.
    rep = h.wrapper.rep
    idx_a = next(i for i, e in enumerate(rep.entries)
                 if not e.is_free and i > 0 and e.parent == 0)
    idx_b = next(i for i, e in enumerate(rep.entries)
                 if not e.is_free and e.parent == idx_a)
    rep.entries[idx_a].parent = idx_b
    with pytest.raises(StateTransferError):
        h.wrapper._resolve_fh(idx_b, set())


def test_bytes_used_restored_after_restart():
    h = WrapperHarness(LinuxExt2Backend)
    standard_workload(h)
    before = h.wrapper.rep.bytes_used
    h.wrapper.shutdown()
    h.wrapper.restart()
    assert h.wrapper.rep.bytes_used == before


def test_free_list_restored_after_restart():
    """Allocation stays deterministic across restarts."""
    h = WrapperHarness(LinuxExt2Backend)
    h.ok("create", ROOT_OID, "one", SATTR_FILE)
    h.ok("create", ROOT_OID, "two", SATTR_FILE)
    h.ok("remove", ROOT_OID, "one")
    h.wrapper.shutdown()
    h.wrapper.restart()
    fh, _ = h.ok("create", ROOT_OID, "three", SATTR_FILE)
    from repro.nfs.spec import oid_bytes
    assert fh == oid_bytes(1, 2)
