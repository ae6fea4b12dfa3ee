"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.scheduler import Scheduler


@pytest.fixture(params=["heap"])
def sched():
    # The single id keeps this battery's test names (``test_x[heap]``)
    # equal to the ones the tier-1 floor list records.
    return Scheduler()


def test_events_run_in_time_order(sched):
    order = []
    sched.schedule(3.0, order.append, "c")
    sched.schedule(1.0, order.append, "a")
    sched.schedule(2.0, order.append, "b")
    sched.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_fifo(sched):
    order = []
    for i in range(10):
        sched.schedule(1.0, order.append, i)
    sched.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time(sched):
    seen = []
    sched.schedule(2.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [2.5]
    assert sched.now == 2.5


def test_cancelled_event_does_not_fire(sched):
    fired = []
    ev = sched.schedule(1.0, fired.append, "x")
    ev.cancel()
    sched.run()
    assert fired == []


def test_negative_delay_rejected(sched):
    with pytest.raises(ValueError):
        sched.schedule(-0.1, lambda: None)


def test_events_scheduled_during_run_execute(sched):
    order = []

    def outer():
        order.append("outer")
        sched.schedule(1.0, lambda: order.append("inner"))

    sched.schedule(1.0, outer)
    sched.run()
    assert order == ["outer", "inner"]
    assert sched.now == 2.0


def test_run_until_stops_at_time_and_advances_clock(sched):
    fired = []
    sched.schedule(1.0, fired.append, 1)
    sched.schedule(5.0, fired.append, 5)
    sched.run_until(3.0)
    assert fired == [1]
    assert sched.now == 3.0
    sched.run()
    assert fired == [1, 5]


def test_run_until_idle_or_predicate(sched):
    state = {"done": False}
    sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: state.update(done=True))
    sched.schedule(3.0, lambda: pytest.fail("should not run past predicate"))
    assert sched.run_until_idle_or(lambda: state["done"])


def test_run_until_idle_or_returns_false_when_queue_drains(sched):
    sched.schedule(1.0, lambda: None)
    assert not sched.run_until_idle_or(lambda: False)


def test_pending_counts_uncancelled(sched):
    e1 = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    e1.cancel()
    assert sched.pending() == 1


def test_cancel_compacts_queue_and_pending_stays_exact(sched):
    events = [sched.schedule(i + 1.0, lambda: None) for i in range(1000)]
    assert sched.pending() == 1000
    for e in events[:900]:
        e.cancel()
    assert sched.pending() == 100
    # Mass cancellation triggers compaction: the internal queue sheds the
    # bulk of the cancelled entries instead of carrying them to pop time.
    assert len(sched._queue) < 200
    assert sched.run() == 100
    assert sched.pending() == 0


def test_the_heap_entries_are_the_events_schedule_returns(sched):
    events = [sched.schedule(delay, lambda: None) for delay in (3.0, 1.0, 2.0)]
    assert sched._queue[0] is events[1]
    assert sorted(map(id, sched._queue)) == sorted(map(id, events))
    assert [(e.time, e.cancelled) for e in events] == [
        (3.0, False), (1.0, False), (2.0, False)]
    events[0].cancel()
    assert events[0].cancelled and sched.pending() == 2


def test_late_and_double_cancels_do_not_skew_pending(sched):
    e1 = sched.schedule(1.0, lambda: None)
    e2 = sched.schedule(2.0, lambda: None)
    assert sched.step()       # fires e1
    e1.cancel()               # late cancel of an already-fired event
    e1.cancel()
    e2.cancel()
    e2.cancel()               # double cancel must count once
    assert sched.pending() == 0
    assert sched.run() == 0


def test_events_run_counter_is_cumulative(sched):
    for i in range(5):
        sched.schedule(float(i), lambda: None)
    cancelled = sched.schedule(10.0, lambda: None)
    cancelled.cancel()
    sched.run()
    assert sched.events_run == 5   # cancelled events do not count
    sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.events_run == 6


# -- seeded chaos traces --------------------------------------------------------------


def _drive_trace(scheduler, seed: int):
    """One seeded chaos trace: mixed near/far delays, mid-run cancels,
    and callbacks that schedule follow-ups.  Returns the exact firing
    order as ``(label, time)`` pairs; labels ``e0``..``e299`` are the
    initial events, in scheduling order."""
    import random
    rng = random.Random(f"sched-diff:{seed}")
    fired = []
    live = []
    delays = (0.0, 1e-6, 3e-5, 1e-4, 7e-4, 0.004, 0.05, 0.4, 2.0, 30.0)

    def make_cb(label, depth):
        def cb():
            fired.append((label, round(scheduler.now, 12)))
            if depth and rng.random() < 0.4:
                live.append(scheduler.schedule(
                    rng.choice(delays) + rng.random() * 1e-3,
                    make_cb(label + "+", depth - 1)))
            if rng.random() < 0.1 and live:
                live.pop(rng.randrange(len(live))).cancel()
        return cb

    for i in range(300):
        live.append(scheduler.schedule(
            rng.choice(delays) * (1.0 + rng.random()), make_cb(f"e{i}", 2)))
        if rng.random() < 0.15 and live:
            live.pop(rng.randrange(len(live))).cancel()
    scheduler.run(50_000)
    return fired


@pytest.mark.parametrize("seed", range(6))
def test_seeded_trace_fires_in_time_then_scheduling_order(seed):
    trace = _drive_trace(Scheduler(), seed)
    assert len(trace) > 300
    times = [time for _label, time in trace]
    assert times == sorted(times)
    # The zero-delay initial events all fire at t=0, where only the
    # scheduling order can break the tie.
    at_zero = [int(label[1:]) for label, time in trace
               if time == 0.0 and "+" not in label]
    assert len(at_zero) > 5
    assert at_zero == sorted(at_zero)
    assert trace == _drive_trace(Scheduler(), seed)
