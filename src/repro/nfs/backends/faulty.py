"""Fault-injecting backend wrappers for software-aging experiments.

Software rejuvenation (paper §1, Huang et al. 1995) targets failures
that correlate with process age: leaks that degrade service, and latent
corruption that eventually surfaces.  These wrappers bolt such ageing
onto any vendor backend so tests and the ablation benches can show
proactive recovery masking them.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.nfs.backends.core import MemoryFilesystem
from repro.nfs.protocol import NfsError, NfsStatus


class LeakyBackend:
    """Delegates to a backend, leaking simulated memory per operation.

    Once leaked bytes exceed ``limit``, every mutating operation fails
    with NFSERR_IO — the process has aged to death.  ``rejuvenate()``
    (called by the conformance wrapper's restart upcall) clears the leak,
    modelling the process restart of proactive recovery.
    """

    MUTATING = {"setattr", "write", "create", "mkdir", "symlink", "remove",
                "rmdir", "rename"}

    def __init__(self, inner: MemoryFilesystem, leak_per_op: int = 1024,
                 limit: int = 10 * 1024 * 1024):
        self._inner = inner
        self.leak_per_op = leak_per_op
        self.limit = limit
        self.leaked = 0

    def rejuvenate(self) -> None:
        self.leaked = 0

    @property
    def aged_out(self) -> bool:
        return self.leaked >= self.limit

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr) or name.startswith("_"):
            return attr

        def guarded(*args, **kwargs):
            self.leaked += self.leak_per_op
            if self.aged_out and name in self.MUTATING:
                raise NfsError(NfsStatus.NFSERR_IO,
                               f"{self._inner.vendor} aged out")
            return attr(*args, **kwargs)

        return guarded


class CorruptingBackend:
    """Delegates to a backend, silently corrupting stored file data with a
    given per-write probability (seeded).  The corruption is *latent*: the
    write succeeds and the rot is only visible on later reads — exactly
    what the recovery check phase must catch."""

    def __init__(self, inner: MemoryFilesystem, probability: float = 0.0,
                 seed: int = 0):
        self._inner = inner
        self.probability = probability
        self._rng = random.Random(seed)
        self.corruptions = 0

    def write(self, fh, offset, data):
        if self.probability and self._rng.random() < self.probability:
            data = bytes(b ^ 0xFF for b in data[:8]) + data[8:]
            self.corruptions += 1
        return self._inner.write(fh, offset, data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


#: Name -> class of every ageing wrapper: what a FaultLab plan may name
#: (``BackendFault`` validates against it) and what its injector builds.
AGEING_BACKENDS = {
    "leaky": LeakyBackend,
    "corrupting": CorruptingBackend,
}
