"""Base class for protocol participants: message handling + timers."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.network import Network
from repro.sim.scheduler import Event, Scheduler


class Timer:
    """Restartable one-shot timer bound to a scheduler.

    Mirrors the timers BFT uses (view-change timer, recovery watchdog):
    ``start`` arms it, ``stop`` disarms, ``restart`` re-arms from now.

    Restarts are *lazy*: protocol code restarts its timers far more often
    than they fire (the view-change timer is pushed out on every
    execution), so pushing the deadline later only records the new
    deadline instead of cancelling and re-scheduling an event.  When the
    stale event fires early, it quietly re-arms for the remaining time.
    Only a restart to an *earlier* deadline touches the queue.
    """

    def __init__(self, scheduler: Scheduler, period: float,
                 callback: Callable[[], None]):
        self.scheduler = scheduler
        self.period = period
        self.callback = callback
        self._event: Optional[Event] = None
        self._deadline = 0.0   # when the callback should actually run

    @property
    def running(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self) -> None:
        """Arm the timer; a running timer keeps its current deadline
        (use :meth:`restart` to re-arm from now)."""
        if self.running:
            return
        self._deadline = self.scheduler.now + self.period
        self._event = self.scheduler.schedule(self.period, self._fire)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def restart(self, period: Optional[float] = None) -> None:
        if period is not None:
            self.period = period
        deadline = self.scheduler.now + self.period
        if self.running and self._event.time <= deadline:
            # The queued event fires no later than the new deadline:
            # leave it and let _fire re-arm for the remainder.
            self._deadline = deadline
            return
        self.stop()
        self.start()

    def _fire(self) -> None:
        if self._deadline > self.scheduler.now:
            # Deadline was lazily pushed out past this event: re-arm once
            # for the remainder instead of having churned the queue on
            # every restart in between.
            self._event = self.scheduler.schedule(
                self._deadline - self.scheduler.now, self._fire)
            return
        self._event = None
        self.callback()


class Node:
    """A network participant with a stable id, send helpers, and timers."""

    def __init__(self, node_id: Any, network: Network):
        self.node_id = node_id
        self.network = network
        self.scheduler = network.scheduler
        network.register(node_id, self)
        self._crashed = False
        self.busy_until = 0.0
        # ``rewrite(msg, dst)`` sees every outgoing copy and returns the
        # message to send, or None to drop it (a Byzantine behaviour).
        self.rewrite: Optional[Callable[[Any, Any], Any]] = None
        # kind -> bound handler (False caches a miss): message dispatch
        # is the hottest call in the simulator, so resolve the
        # ``handle_<kind>`` lookup once per kind instead of per message.
        self._handlers: dict = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Stop processing messages (fail-stop); timers keep firing but
        subclasses should check :attr:`crashed`."""
        self._crashed = True

    def restart_node(self) -> None:
        self._crashed = False

    # -- CPU accounting ---------------------------------------------------------

    def charge(self, seconds: float) -> None:
        """Consume simulated CPU time; serializes this node's work.

        Outgoing messages are delayed until the node's accumulated CPU
        work has drained, modelling a single-threaded implementation.
        """
        if seconds > 0:
            now = self.scheduler.now
            busy = self.busy_until
            self.busy_until = (busy if busy > now else now) + seconds

    # -- messaging -----------------------------------------------------------

    def send(self, dst: Any, msg: Any, size: Optional[int] = None) -> None:
        """The one departure rule: ``rewrite`` first, then the crashed
        check, then a busy sender's CPU backlog shifts the departure.  The
        network folds the backlog into the delivery delay rather than
        running a trampoline event at busy_until (same timing, one event
        fewer)."""
        rewrite = self.rewrite
        if rewrite is not None:
            msg = rewrite(msg, dst)
            if msg is None:
                return
        if self._crashed:
            return
        delay = self.busy_until - self.scheduler.now
        self.network.send(self.node_id, dst, msg, size,
                          delay if delay > 0 else 0.0)

    def multicast(self, dsts, msg: Any) -> None:
        """True IP multicast, one serialization for every destination;
        with a ``rewrite`` hook each copy is rewritten and sent alone."""
        if self.rewrite is not None:
            for dst in dsts:
                self.send(dst, msg)
            return
        if self._crashed:
            return
        delay = self.busy_until - self.scheduler.now
        self.network.multicast(self.node_id, dsts, msg,
                               delay if delay > 0 else 0.0)

    def on_message(self, src: Any, msg: Any) -> None:
        """Dispatch to ``handle_<type>`` by the message's ``kind`` attribute."""
        if self._crashed:
            return
        kind = getattr(msg, "kind", None)
        handler = self._handlers.get(kind)
        if handler is None:
            handler = getattr(self, f"handle_{kind}", None) if kind else None
            self._handlers[kind] = handler if handler is not None else False
        if handler:
            handler(src, msg)

    # -- timers ---------------------------------------------------------------

    def make_timer(self, period: float, callback: Callable[[], None]) -> Timer:
        return Timer(self.scheduler, period, callback)

    @property
    def now(self) -> float:
        return self.scheduler.now
