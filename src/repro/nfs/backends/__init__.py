"""Off-the-shelf NFS server implementations (simulated).

Each backend is an in-memory NFS server with a deliberately distinct
concrete behaviour, standing in for the four operating systems of the
paper's heterogeneous setup:

==================  =============================================================
Backend             Quirks
==================  =============================================================
LinuxExt2Backend    8-byte (ino, gen) handles; insertion-order readdir;
                    1-second timestamp granularity; *unstable* writes (does
                    not sync before replying — the paper calls this out as
                    why Linux is fastest and non-compliant)
SolarisUfsBackend   16-byte (fsid, ino, gen) handles; name-hash readdir
                    order; microsecond timestamps; synchronous writes
OpenBsdFfsBackend   12-byte handles; *reverse* insertion readdir order;
                    synchronous writes; slowest cost profile
FreeBsdUfsBackend   16-byte handles containing a per-boot random salt, so
                    handles are nondeterministic across replicas and
                    reboots; fileid-sorted readdir; synchronous writes
==================  =============================================================

The conformance wrapper must mask every one of these differences to make
replicas behave per the common abstract specification.
"""

# The perf ledger imports these three names from the package.
from repro.nfs.backends.core import MemoryFilesystem
from repro.nfs.backends.vendors import ALL_BACKENDS, LinuxExt2Backend
