"""Event loop: timed callbacks over simulated time.

:class:`Scheduler` is the one event queue: a binary heap (``heapq``) of
``(time, seq, event)`` entries that always pops the strict global
minimum of ``(time, seq)``, so a run's event order is a function of its
inputs alone.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback.  Cancellable; ordered by (time, seq)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "scheduler")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, scheduler: Optional["Scheduler"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference while the event sits in a scheduler's queue; the
        # scheduler clears it on pop so late cancels of already-fired
        # events do not skew its live-event accounting.
        self.scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            if self.scheduler is not None:
                self.scheduler._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, fn={self.fn!r})"


#: Heap entries are (time, seq, event) tuples: the unique, monotonically
#: increasing seq breaks time ties, so heap comparisons resolve in C on
#: the first two fields and never call back into Python.
_Entry = Tuple[float, int, Event]


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
        self._now = 0.0
        self._seq = 0
        self._queue: List[_Entry] = []
        self._cancelled = 0   # cancelled events still sitting in the queue
        self.events_run = 0   # cumulative executed events

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Returns the :class:`Event`, which may be cancelled before it fires.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        _heappush(self._queue, (time, seq, event))
        return event

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        queue = self._queue
        while queue:
            time, _seq, event = _heappop(queue)
            event.scheduler = None
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            self.events_run += 1
            event.fn(*event.args)
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
            head_time, _seq, head = queue[0]
            if head.cancelled:
                _heappop(queue)
                head.scheduler = None
                self._cancelled -= 1
                continue
            if head_time > time:
                break
            self.step()
            count += 1
        if self._now < time:
            self._now = time
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
        for entry in self._queue:
            event = entry[2]
            if event.cancelled:
                event.scheduler = None
            else:
                live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._cancelled = 0
