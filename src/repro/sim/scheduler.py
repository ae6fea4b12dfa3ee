"""Event loop: timed callbacks over simulated time.

:class:`Scheduler` is the one event queue: a binary heap (``heapq``) of
:class:`Event` entries that always pops the strict global minimum of
``(time, seq)``, so a run's event order is a function of its inputs
alone.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event(list):
    """A scheduled callback, and its own heap entry:
    ``[time, seq, fn, args, scheduler]``.

    The unique, monotonically increasing ``seq`` breaks time ties, so
    heap comparisons resolve in C on the first two items and never reach
    ``fn``.  Cancelling clears ``fn``.  ``scheduler`` is set while the
    event sits in a scheduler's queue; the scheduler clears it on pop, so
    a late cancel of a fired event does not skew its live-event count.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if self[2] is not None:
            self[2] = None
            scheduler = self[4]
            if scheduler is not None:
                scheduler._note_cancel()


class Scheduler:
    """Discrete-event scheduler with a monotonically advancing clock.

    Time is a float in simulated seconds.  Events scheduled for the same
    instant run in scheduling order (FIFO), which keeps runs deterministic.

    Cancelled events are counted as they are cancelled (so
    :meth:`pending` is O(1)) and lazily discarded; when they outnumber
    the live half of the queue the heap is compacted in one pass, keeping
    memory and pop costs proportional to the live event count.
    """

    #: Compact only above this queue size — tiny heaps are cheap to scan.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now = 0.0        # current simulated time in seconds
        self._seq = 0
        self._queue: List[Event] = []
        self._cancelled = 0   # cancelled events still sitting in the queue
        self.events_run = 0   # cumulative executed events

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Returns the :class:`Event`, which may be cancelled before it fires.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        event = Event((self.now + delay, seq, fn, args, self))
        _heappush(self._queue, event)
        return event

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        queue = self._queue
        while queue:
            event = _heappop(queue)
            event[4] = None
            fn = event[2]
            if fn is None:
                self._cancelled -= 1
                continue
            self.now = event[0]
            self.events_run += 1
            fn(*event[3])
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``).  Returns count run."""
        count = 0
        while max_events is None or count < max_events:
            if not self.step():
                break
            count += 1
        return count

    def run_until(self, time: float) -> int:
        """Run events with time <= ``time``; advances the clock to ``time``."""
        count = 0
        while True:
            # Re-read the queue each pass: a callback may have compacted
            # it, which rebinds ``self._queue``.
            queue = self._queue
            if not queue:
                break
            head = queue[0]
            if head[2] is None:
                _heappop(queue)
                head[4] = None
                self._cancelled -= 1
                continue
            if head[0] > time:
                break
            self.step()
            count += 1
        if self.now < time:
            self.now = time
        return count

    def run_until_idle_or(self, predicate: Callable[[], bool],
                          max_events: int = 50_000_000) -> bool:
        """Run until ``predicate()`` is true or the queue drains.

        Returns the final value of the predicate.  The predicate is checked
        after every event, making this the usual way tests wait for a
        protocol outcome without assuming how long it takes.
        """
        count = 0
        while count < max_events:
            if predicate():
                return True
            if not self.step():
                break
            count += 1
        return predicate()

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1): the
        scheduler tracks cancellations as they happen instead of scanning."""
        return len(self._queue) - self._cancelled

    # -- internals ----------------------------------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for events still in the queue."""
        self._cancelled += 1
        if (self._cancelled > self._COMPACT_MIN
                and self._cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors."""
        live = []
        for event in self._queue:
            if event[2] is None:
                event[4] = None
            else:
                live.append(event)
        heapq.heapify(live)
        self._queue = live
        self._cancelled = 0
