"""BASEFS: a Byzantine-fault-tolerant NFS service built with BASE.

Reproduces the paper's §3.1 example: replicas each wrap an off-the-shelf
NFS server implementation — here, four in-memory file-system backends
with deliberately different concrete representations (file-handle
schemes, readdir orders, timestamp granularities, write-stability
policies, cost profiles) standing in for Linux/Ext2fs, Solaris/UFS,
OpenBSD/FFS and FreeBSD/UFS.

Layers (paper Figure 3):

- :mod:`repro.nfs.protocol` — NFSv2-level operations, attributes, errors;
- :mod:`repro.nfs.backends` — the wrapped "off-the-shelf" servers;
- :mod:`repro.nfs.spec` — the common abstract specification: the abstract
  state array, XDR object encoding, virtualized limits;
- :mod:`repro.nfs.wrapper` — the conformance wrapper (``execute``) and
  the state-conversion functions (``get_obj`` / ``put_objs``);
- :mod:`repro.nfs.client` — a simulated kernel NFS client (attribute and
  lookup caching) that can mount either BASEFS or an unreplicated backend;
- :mod:`repro.nfs.service` — the service definition
  (:data:`NFS_SERVICE`) and the transports for BASEFS and the
  unreplicated NFS-std baseline.
"""
