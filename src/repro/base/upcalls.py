"""The BASE upcall interface (paper Figure 1 / Figure 2).

A *conformance wrapper* implements this interface around an off-the-shelf
service implementation, making it behave according to the common abstract
specification.  The library calls:

- ``execute`` to run each operation (the wrapper must call
  ``self.library.modify(i)`` before mutating abstract object ``i`` —
  that is how incremental copy-on-write checkpointing works);
- ``get_obj`` — the abstraction function, at object granularity;
- ``put_objs`` — an inverse of the abstraction function, called with a
  vector of objects that together bring the abstract state to a
  consistent checkpoint value;
- ``propose_value`` (primary only) and ``check_value`` to agree on
  nondeterministic choices such as timestamps;
- ``shutdown``/``restart`` around proactive-recovery reboots.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:  # the manager imports this module
    from repro.base.state import AbstractStateManager


class Upcalls(abc.ABC):
    """Conformance-wrapper interface; one instance wraps one replica's
    service implementation."""

    def __init__(self) -> None:
        #: The :class:`~repro.base.state.AbstractStateManager` binding
        #: this wrapper, which sets itself here.  Its ``modify(index)``
        #: MUST be called before mutating an abstract object (it
        #: implements copy-on-write checkpointing); ``charge(seconds)``
        #: consumes simulated CPU/disk time at the replica.
        self.library: Optional["AbstractStateManager"] = None

    # -- sizing ------------------------------------------------------------

    @property
    @abc.abstractmethod
    def num_objects(self) -> int:
        """Fixed size of the abstract-state array."""

    # -- execution -----------------------------------------------------------

    @abc.abstractmethod
    def execute(self, op: bytes, client_id: str, nondet: bytes,
                read_only: bool = False) -> bytes:
        """Run one operation of the common abstract specification."""

    # -- state conversion -------------------------------------------------------

    @abc.abstractmethod
    def get_obj(self, index: int) -> bytes:
        """Abstraction function: the value of abstract object ``index``,
        computed from the wrapped implementation's concrete state."""

    @abc.abstractmethod
    def put_objs(self, objects: Dict[int, bytes]) -> None:
        """Inverse abstraction function: update the concrete state so that
        the given abstract objects take the given values.

        The library guarantees the argument brings the abstract state to a
        consistent checkpoint value, so implementations may resolve
        inter-object dependencies (e.g. create parent directories first).
        """

    # -- nondeterminism ------------------------------------------------------------

    def propose_value(self, requests: Sequence[bytes], seq: int) -> bytes:
        """Primary-side choice of the nondeterministic value for a batch."""
        return b""

    def check_value(self, requests: Sequence[bytes], seq: int,
                    nondet: bytes) -> bool:
        """Backup-side validation of the primary's proposal."""
        return nondet == b""

    # -- proactive recovery -----------------------------------------------------------

    def shutdown(self) -> float:
        """Persist the conformance representation; returns simulated
        seconds the save took."""
        return 0.0

    def restart(self) -> float:
        """Rebuild the conformance representation after a reboot; returns
        simulated seconds the rebuild took."""
        return 0.0
