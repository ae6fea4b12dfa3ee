"""Registration and transports for the file service.

Two deployments, matching the paper's evaluation:

- **BASEFS** — four replicas, each wrapping a backend with the
  conformance wrapper, behind the BASE library (all the same backend
  class for Tables I–III, one per OS for Table V);
- **NFS-std** — one unreplicated backend behind a plain request/response
  server node (the baseline every table compares against).

Both are reached through :class:`BaseFsTransport` (the baseline's
:class:`DirectTransport` finds the mount handle another way), so the
simulated NFS client and the Andrew benchmark are oblivious to which
they are driving.  The service is declared once as :data:`NFS_SERVICE`;
:mod:`repro.service.deploy` builds both deployments from it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.encoding.canonical import canonical, decanonical
from repro.nfs.backends.core import CostProfile, MemoryFilesystem
from repro.nfs.backends.vendors import LinuxExt2Backend
from repro.nfs.protocol import NfsError, NfsProc, NfsStatus, READ_ONLY_PROCS
from repro.nfs.wrapper import NfsConformanceWrapper
from repro.service.deploy import (
    Channel,
    DirectService,
    DirectServiceServer,
    LearnedKey,
    ServiceDefinition,
    ShardKeySpec,
    WrapperContext,
)
from repro.service.registry import register


class BaseFsTransport:
    """Client side of BASEFS: each NFS procedure rides a service channel."""

    def __init__(self, channel: Channel):
        self.channel = channel

    def call(self, proc: NfsProc, *args, read_only: bool = False) -> tuple:
        op = canonical((proc.value,) + args)
        raw = self.channel.call(op, read_only=read_only
                                and proc in READ_ONLY_PROCS)
        result = decanonical(raw)
        status = result[0]
        if status != 0:
            raise NfsError(NfsStatus(status))
        return result[1:]

    def root_fh(self) -> bytes:
        """The mount handle."""
        from repro.nfs.spec import ROOT_OID
        return ROOT_OID

    def charge(self, seconds: float) -> None:
        self.channel.charge(seconds)

    @property
    def now(self) -> float:
        return self.channel.now


class DirectTransport(BaseFsTransport):
    """Same wire surface against the unreplicated baseline; the mount
    handle comes from the server instead of the abstract root oid."""

    def root_fh(self) -> bytes:
        raw = self.channel.call(canonical(("mount",)))
        result = decanonical(raw)
        if result[0] != 0:
            raise NfsError(NfsStatus(result[0]))
        return result[1]

    @property
    def scheduler(self):
        return self.channel.scheduler


# -- the unreplicated request handler --------------------------------------------

#: Wire-legal procedure names the baseline forwards to its backend; any
#: other tag from a (possibly Byzantine) client gets the deterministic
#: ``bad procedure`` reply instead of a ``getattr`` free-for-all.
_DIRECT_PROCS = frozenset(proc.value for proc in NfsProc) | {"mount"}


def _decode_args(proc_name: str, args: list):
    from repro.nfs.protocol import Sattr
    decoded = []
    for arg in args:
        if (isinstance(arg, tuple) and len(arg) == 6
                and proc_name in ("setattr", "create", "mkdir",
                                  "symlink")):
            decoded.append(Sattr.decode(arg))
        else:
            decoded.append(arg)
    return decoded


def _encode_payload(proc_name: str, payload) -> tuple:
    if payload is None:
        return ()
    if proc_name in ("getattr", "setattr", "write"):
        return (payload.encode(),)
    if proc_name in ("lookup", "create", "mkdir", "symlink"):
        fh, fattr = payload
        return (fh, fattr.encode())
    if proc_name == "read":
        data, fattr = payload
        return (data, fattr.encode())
    if proc_name == "readdir":
        return (tuple((name, fileid) for name, fileid in payload),)
    if proc_name == "readlink":
        return (payload,)
    if proc_name == "statfs":
        return (payload.encode(),)
    if proc_name == "mount":
        return (payload,)
    return (payload,)


def _data_bytes(proc_name: str, args: list, result: tuple) -> int:
    if proc_name == "write" and len(args) >= 3:
        return len(args[2])
    if proc_name == "read" and len(result) > 1:
        return len(result[1])
    return 0


def _payload_size(result: tuple) -> int:
    total = 0
    for item in result:
        if isinstance(item, (bytes, str)):
            total += len(item)
        elif isinstance(item, tuple):
            total += _payload_size(item)
        else:
            total += 8
    return total


def _direct_handler(backend: MemoryFilesystem):
    def handler(node: DirectServiceServer, src: str,
                op: bytes) -> Tuple[bytes, int]:
        proc_name, *args = decanonical(op)
        backend_proc = getattr(backend, proc_name, None) \
            if proc_name in _DIRECT_PROCS else None
        if backend_proc is None:
            result: tuple = (int(NfsStatus.NFSERR_IO), "bad procedure")
        else:
            try:
                payload = backend_proc(*_decode_args(proc_name, args))
                result = (0,) + _encode_payload(proc_name, payload)
            except NfsError as err:
                result = (int(err.status),)
            nbytes = _data_bytes(proc_name, args, result)
            node.charge(backend.cost(proc_name, nbytes))
        return canonical(result), 64 + _payload_size(result)
    return handler


# -- service registration ----------------------------------------------------------


def _backend_kwargs(backend_class: type, index: int, clock,
                    profile: Optional[CostProfile]) -> dict:
    kwargs = {"clock": clock, "profile": profile}
    if backend_class.__name__ == "FreeBsdUfsBackend":
        kwargs["boot_salt"] = 1000 + index
    return kwargs


def _make_wrapper(ctx: WrapperContext) -> NfsConformanceWrapper:
    backend_class = ctx.backend_class or LinuxExt2Backend
    profiles = ctx.options["profiles"]
    backend = backend_class(**_backend_kwargs(
        backend_class, ctx.index, ctx.clock,
        profiles[ctx.index] if profiles else None))
    return NfsConformanceWrapper(backend, spec=ctx.options["spec"],
                                 clock=ctx.clock)


def _make_direct(ctx: WrapperContext) -> DirectService:
    backend_class = ctx.backend_class or LinuxExt2Backend
    backend = backend_class(clock=ctx.clock,
                            profile=ctx.options["profile"])
    return DirectService(backend=backend, handler=_direct_handler(backend))


#: Wire-arg index of the second file handle, for the one proc with two.
_SECOND_FH = {"rename": 2}

#: Procs whose success reply mints a file handle (``(0, fh, fattr)``)
#: that must be pinned to the answering shard.
_MINTING_PROCS = frozenset(("lookup", "create", "mkdir", "symlink"))


def _nfs_shard_key(decoded: tuple):
    """Partition the namespace by top-level subtree.

    The mount handle (the abstract root oid) is common to every shard —
    each group holds its own root directory.  A root-directory op routes
    by the entry *name* it touches (the subtree key); ops on any other
    handle route by the pin learned when that handle was minted, because
    shards allocate oids independently and identical handle bytes can
    name different files in different shards.
    """
    from repro.nfs.spec import ROOT_OID
    proc, *args = decoded
    positions = [0] + ([_SECOND_FH[proc]] if proc in _SECOND_FH else [])
    keys = []
    for pos in positions:
        if pos >= len(args) or not isinstance(args[pos], bytes):
            continue
        fh = args[pos]
        if fh == ROOT_OID:
            name = args[pos + 1] if pos + 1 < len(args) else None
            if isinstance(name, str):
                keys.append(("subtree", name))
            # A nameless root op (readdir, statfs, getattr of the root)
            # contributes no key: it rides to the home shard.
        else:
            keys.append(LearnedKey(fh))
    if not keys:
        return None
    return keys if len(keys) > 1 else keys[0]


def _nfs_learn(decoded: tuple, reply: tuple):
    if (decoded[0] in _MINTING_PROCS and len(reply) >= 2
            and reply[0] == 0 and isinstance(reply[1], bytes)):
        return (reply[1],)
    return ()


NFS_SERVICE = register(ServiceDefinition(
    name="nfs",
    make_wrapper=_make_wrapper,
    make_client=BaseFsTransport,
    make_direct=_make_direct,
    make_direct_client=DirectTransport,
    #: ``spec`` sizes the abstract state; ``profiles`` is one cost
    #: profile per replica (``profile``: the baseline's one).
    wrapper_options={"spec": None, "profiles": None},
    direct_options={"profile": None},
    default_backends=(LinuxExt2Backend,) * 4,
    branching=64,
    direct_client_id="nfs-client",
    shard_key=ShardKeySpec(extract=_nfs_shard_key, learn=_nfs_learn,
                           axis="top-level subtree"),
))
