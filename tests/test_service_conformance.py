"""The cross-service conformance battery (see
:mod:`repro.service.conformance`), parametrized over every service in
the registry — the same six checks run against NFS, SQL, HTTP, and
Thor, each over a heterogeneous wrapper pair.
"""

import re

import pytest

from repro.encoding.canonical import canonical, decanonical
from repro.nfs.spec import ROOT_OID
from repro.service.conformance import (
    BATTERY,
    check_abstract_determinism,
    check_malformed_ops,
    check_read_only_rejection,
    check_restart_survival,
    check_round_trip,
    check_txn_framing,
    faulty_probe_names,
    get_faulty_probe,
    get_probe,
    probe_names,
)
from repro.service.deploy import (REQUIRED, ReplicatedDeployment,
                                  UnreplicatedDeployment)
from repro.service.registry import get_service, service_names
from repro.service.sharding import ShardedDeployment


def test_every_registered_service_has_a_probe():
    assert set(probe_names()) == set(service_names())


@pytest.mark.parametrize("name", probe_names())
def test_round_trip(name):
    check_round_trip(get_probe(name))


@pytest.mark.parametrize("name", probe_names())
def test_abstract_determinism(name):
    check_abstract_determinism(get_probe(name))


@pytest.mark.parametrize("name", probe_names())
def test_read_only_rejection(name):
    check_read_only_rejection(get_probe(name))


@pytest.mark.parametrize("name", probe_names())
def test_malformed_ops(name):
    check_malformed_ops(get_probe(name))


@pytest.mark.parametrize("name", probe_names())
def test_restart_survival(name):
    check_restart_survival(get_probe(name))


@pytest.mark.parametrize("name", probe_names())
def test_txn_framing(name):
    check_txn_framing(get_probe(name))


@pytest.mark.parametrize("name", probe_names())
def test_decoded_op_memo_cannot_leak_across_requests(name):
    """``AbstractService.execute`` reuses its last decode when handed the
    same bytes *object*.  One wrapper is fed the script below with every
    op object reused (a warm entry wherever one can exist), its twin gets
    a fresh copy of the bytes each time (never a warm entry): every reply
    and the final abstract states must be byte-identical."""
    probe = get_probe(name)
    warm, cold = probe.driver(0), probe.driver(0)
    for driver in (warm, cold):
        probe.workload(driver)
    mutate = canonical(probe.mutating_op)
    read = canonical(probe.read_only_op or probe.mutating_op)
    commit = canonical(("__commit__", "txn-memo", (mutate,)))
    script = [
        (mutate, True), (mutate, False),        # one object, both paths
        (bytes(bytearray(mutate)), False),      # equal bytes, another object
        (read, True), (read, False),
        (b"\xff" * len(read), True), (read, True),   # undecodable, then good
        (commit, False), (commit, False),       # sub-ops re-enter execute
        (mutate, False), (read, True),
    ]
    # One run after the other: the entry is shared by the whole process.
    warm_replies = [warm.raw(op, read_only) for op, read_only in script]
    cold_replies = [cold.raw(bytes(bytearray(op)), read_only)
                    for op, read_only in script]
    assert warm_replies == cold_replies
    assert warm.snapshot() == cold.snapshot()
    # The undecodable op drew an error and stored nothing: the read after
    # it answers as the read before it did.
    assert probe.is_error(decanonical(warm_replies[5]))
    assert warm_replies[6] == warm_replies[3]


def _build_sharded(definition, **options):
    return ShardedDeployment.build(definition, 2, **options)


@pytest.mark.parametrize("build, declared_by", [
    (ReplicatedDeployment.build, "wrapper_options"),
    (UnreplicatedDeployment.build, "direct_options"),
    (_build_sharded, "wrapper_options"),
], ids=["replicated", "unreplicated", "sharded"])
@pytest.mark.parametrize("name", probe_names())
def test_build_refuses_undeclared_and_missing_options(name, build,
                                                      declared_by):
    """A misspelt option must not silently build the default, a wrapper
    option handed to the baseline must not be ignored, and a required
    option must not be left out: each is a TypeError naming it."""
    definition = get_service(name)
    declared = getattr(definition, declared_by)
    required = {opt: None for opt, default in declared.items()
                if default is REQUIRED}
    refused = [(dict(required, no_such_option=1),
                "unknown ['no_such_option']")]
    refused += [(dict(required, **{opt: None}), f"unknown ['{opt}']")
                for opt in definition.wrapper_options if opt not in declared]
    refused += [({k: None for k in required if k != opt},
                 f"missing ['{opt}']") for opt in required]
    for options, complaint in refused:
        with pytest.raises(TypeError, match=re.escape(complaint)):
            build(definition, **options)


# -- faulty backends ---------------------------------------------------------
#
# The BASE claim under test: the abstraction wrapper tolerates software
# aging in the off-the-shelf implementation.  The faulty probes wrap the
# real vendor backends in the ageing wrappers from
# repro.nfs.backends.faulty, and their workloads assert the fault
# actually fired — so a pass means conformance held *through* the fault,
# not around it.


def test_faulty_probe_registry():
    assert set(faulty_probe_names()) == {"nfs-leaky", "nfs-corrupting"}
    # Faulty probes deliberately stay out of the 1:1 service registry.
    assert not set(faulty_probe_names()) & set(probe_names())


@pytest.mark.parametrize("check", BATTERY, ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", faulty_probe_names())
def test_battery_over_faulty_nfs_backends(name, check):
    check(get_faulty_probe(name))


def test_aged_out_leaky_backend_recovers_via_rejuvenation():
    probe = get_faulty_probe("nfs-leaky")
    driver = probe.driver(0)
    backend = driver.wrapper.backend
    backend.leaked = backend.limit  # instant old age
    assert probe.is_error(driver.op(*probe.mutating_op))
    # The proactive-recovery path: load_rep rejuvenates the backend
    # before remounting, so the aged-out server comes back healthy.
    driver.wrapper.load_rep(driver.wrapper.save_rep())
    assert backend.leaked < backend.limit
    driver.ok(*probe.post_restart_op)
    driver.ok(*probe.mutating_op)


def test_battery_covers_all_six_checks():
    assert {check.__name__ for check in BATTERY} == {
        "check_round_trip", "check_abstract_determinism",
        "check_read_only_rejection", "check_malformed_ops",
        "check_restart_survival", "check_txn_framing"}


# -- regression: wire-legal procedures outside the abstract spec ------------------
#
# RFC 1094's NULL, ROOT, and WRITECACHE are legal on the wire but have no
# handler in the conformance wrapper.  The old dispatch reached them via
# getattr(self, f"_op_{kind}") with no default, so a Byzantine client
# could crash a replica with an AttributeError; the kernel's op table
# answers them with the deterministic "bad procedure" envelope instead.


def test_nfs_unknown_wire_procedures_get_deterministic_reply():
    from repro.nfs.protocol import NfsProc, NfsStatus
    driver = get_probe("nfs").driver(0)
    for proc in (NfsProc.NULL, NfsProc.ROOT, NfsProc.WRITECACHE):
        reply = driver.op(proc.value)
        assert reply == (int(NfsStatus.NFSERR_IO), "bad procedure"), proc


def test_nfs_std_baseline_rejects_unknown_wire_procedures():
    from repro.nfs.protocol import NfsError, NfsProc, NfsStatus
    from repro.nfs.service import NFS_SERVICE
    from repro.service.deploy import UnreplicatedDeployment
    transport = UnreplicatedDeployment.build(NFS_SERVICE).client
    transport.root_fh()  # server is up and answering
    for proc in (NfsProc.NULL, NfsProc.ROOT, NfsProc.WRITECACHE):
        with pytest.raises(NfsError) as excinfo:
            transport.call(proc)
        assert excinfo.value.status == NfsStatus.NFSERR_IO


# -- slot claims -----------------------------------------------------------------
#
# Every create path claims the lowest free abstract slot before it calls
# the backend.  A backend call that fails with an exception outside the
# service's own error class must still hand the slot back: a slot left
# pending is lost for good, so a faulty client could drain the abstract
# array one ill-typed request at a time.

_SLOT_CLAIMS = {
    "nfs-create": ("nfs", "backend", "create",
                   ("create", ROOT_OID, "new", (0o644, 0, 0, -1, -1, -1))),
    "sql-insert": ("sql", "engine", "insert",
                   ("insert", "users", (9, "new", 0))),
    "http-put": ("http", "server", "put", ("PUT", "/new.txt", b"new", "")),
    "http-mkcol": ("http", "server", "mkcol", ("MKCOL", "/new")),
}


@pytest.mark.parametrize("case", sorted(_SLOT_CLAIMS))
def test_failed_backend_call_hands_its_slot_back(case, monkeypatch):
    """One wrapper's backend raises TypeError once; the reply is the
    service's error envelope, and the next create takes the slot a twin
    that never saw the failure takes."""
    name, attr, method, create = _SLOT_CLAIMS[case]
    probe = get_probe(name)
    failed, twin = probe.driver(0), probe.driver(0)
    for driver in (failed, twin):
        probe.workload(driver)

    def broken(*args, **kwargs):
        raise TypeError("backend bug")

    with monkeypatch.context() as patch:
        patch.setattr(getattr(failed.wrapper, attr), method, broken)
        assert probe.is_error(failed.op(*create))
    twin.raw(canonical(("__no_such_op__",)))  # same clock for the create
    assert failed.op(*create) == twin.op(*create)
    assert failed.snapshot() == twin.snapshot()
