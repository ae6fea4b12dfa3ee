"""Byzantine behavior hooks for fault-injection testing.

A replica with a :class:`Behavior` attached consults it at well-defined
points.  The canned behaviors below cover the failure modes the BFT/BASE
safety arguments must survive; tests combine them with network faults.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple


class Behavior:
    """Default behavior: honest.  Subclasses override hooks to misbehave.

    Behaviors that need to schedule their mischief (delaying or replaying
    messages) get the replica via :meth:`bind`, which the replica calls
    when the behavior is attached; purely functional behaviors ignore it.
    """

    #: The node this behavior is attached to (set by :meth:`bind`).
    node = None

    def bind(self, node) -> "Behavior":
        """Attach to ``node``; called when assigned to a replica."""
        self.node = node
        return self

    def rewrite_outgoing(self, msg, dst) -> Optional[object]:
        """Return a replacement message, the original, or None to drop."""
        return msg

    def corrupt_reply_result(self, result: bytes) -> bytes:
        """Tamper with an execution result before replying."""
        return result

    def bad_nondet(self, nondet: bytes) -> bytes:
        """Tamper with the primary's nondeterministic value proposal."""
        return nondet

    def equivocate_pre_prepare(self) -> bool:
        """Primary: send conflicting pre-prepares to different backups."""
        return False


HONEST = Behavior()


class MuteBehavior(Behavior):
    """Sends nothing at all (fail-silent while still receiving)."""

    def rewrite_outgoing(self, msg, dst):
        return None


class WrongReplyBehavior(Behavior):
    """Replies with corrupted results; otherwise follows the protocol."""

    def corrupt_reply_result(self, result: bytes) -> bytes:
        return b"\xff" + result


class BadNondetBehavior(Behavior):
    """Faulty primary proposing a bogus nondeterministic value."""

    def __init__(self, value: bytes = b"\x00" * 8):
        self.value = value

    def bad_nondet(self, nondet: bytes) -> bytes:
        return self.value


class EquivocatingPrimaryBehavior(Behavior):
    """Faulty primary that sends different orderings to different backups."""

    def equivocate_pre_prepare(self) -> bool:
        return True


class ReplayBehavior(Behavior):
    """Re-sends stale messages alongside the live protocol traffic.

    Correct replicas must treat a replayed PRE-PREPARE, PREPARE, or
    CHECKPOINT as the duplicate it is: sequence numbers outside the
    watermarks are rejected, and in-window duplicates are idempotent.
    Every ``every``-th outgoing message additionally re-sends the oldest
    message in a bounded history to its original destination.
    """

    def __init__(self, history: int = 8, every: int = 2):
        self.every = every
        self._stale: deque = deque(maxlen=history)
        self._sent = 0
        self.replayed = 0

    def rewrite_outgoing(self, msg, dst):
        self._sent += 1
        if (self.node is not None and self._stale
                and self._sent % self.every == 0):
            old_dst, old_msg = self._stale[0]
            # Straight onto the fabric: a replayed message must not go
            # back through this hook (it would replay recursively).
            self.node.network.send(self.node.node_id, old_dst, old_msg)
            self.replayed += 1
        self._stale.append((dst, msg))
        return msg


class DelayBehavior(Behavior):
    """Holds outgoing messages for a fixed simulated interval.

    A slow-but-honest replica: everything it sends arrives ``delay``
    seconds late (on top of network latency).  With ``kinds`` set, only
    messages of those kinds are held and the rest flow normally — e.g.
    delaying only COMMITs to stretch the commit phase.
    """

    def __init__(self, delay: float = 0.05,
                 kinds: Optional[Tuple[str, ...]] = None):
        self.delay = delay
        self.kinds = tuple(kinds) if kinds else None
        self.held = 0

    def rewrite_outgoing(self, msg, dst):
        node = self.node
        if node is None:
            return msg
        if self.kinds and getattr(msg, "kind", None) not in self.kinds:
            return msg
        self.held += 1
        node.scheduler.schedule(self.delay, node.network.send,
                                node.node_id, dst, msg)
        return None


class UnauthReplyBehavior(Behavior):
    """Sends *wrong* replies with the authenticator stripped entirely.

    A client that accepts auth-less replies as quorum votes can be fooled
    by a single faulty replica (it may impersonate many voters, or — as
    the regression that motivated this behavior showed — have its
    unverifiable vote counted toward f+1); a correct client must discard
    these outright.
    """

    def corrupt_reply_result(self, result: bytes) -> bytes:
        return b"\xfe" + result

    def rewrite_outgoing(self, msg, dst):
        if getattr(msg, "kind", None) == "reply":
            msg.auth = None
        return msg


class ForgedAuthBehavior(Behavior):
    """Sends messages whose authenticators are garbage."""

    def rewrite_outgoing(self, msg, dst):
        auth = getattr(msg, "auth", None)
        if auth is not None:
            from repro.crypto.mac import Authenticator
            msg.auth = Authenticator.forged(auth.sender, list(auth.tags))
        return msg


#: Name -> class of every canned behavior: what a FaultLab plan may name
#: (``ReplicaFault`` validates against it) and what its injector builds.
BEHAVIORS = {
    "mute": MuteBehavior,
    "wrong_reply": WrongReplyBehavior,
    "bad_nondet": BadNondetBehavior,
    "equivocate": EquivocatingPrimaryBehavior,
    "forged_auth": ForgedAuthBehavior,
    "unauth_reply": UnauthReplyBehavior,
    "replay": ReplayBehavior,
    "delay": DelayBehavior,
}
