"""The event scheduler's determinism contract.

Three load-bearing properties:

* **Total order** — events dispatch by ``(time, priority, tiebreak,
  seq)``; any legal heap-insertion order of the same logical events
  produces the identical journal (Hypothesis permutation test).
* **Race semantics** — a response delivery at exactly the timeout
  instant wins (the query is answered, not dropped); regression-pinned
  because the network layer relies on it.
* **Baton passing** — exactly one runnable thread, bounded admission,
  pooled workers; sessions interleave only at clock suspensions, and
  loop work moves to whichever thread holds the baton without changing
  what the caller of ``run()`` sees.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import (
    EventScheduler,
    Priority,
    SchedulerError,
    SimClock,
)
from repro.netsim import sched


def make_scheduler(max_concurrent=256):
    journal = []
    scheduler = EventScheduler(
        SimClock(), max_concurrent=max_concurrent, journal=journal
    )
    return scheduler, journal


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------


def test_sessions_interleave_at_clock_suspensions():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    log = []

    def session(name, first, second):
        def run():
            log.append((name, clock.now, "start"))
            clock.advance(first)
            log.append((name, clock.now, "mid"))
            clock.advance(second)
            log.append((name, clock.now, "end"))
        return run

    with scheduler:
        scheduler.spawn(session("a", 0.5, 1.0), at=0.0, tiebreak=(0,))
        scheduler.spawn(session("b", 0.5, 1.0), at=0.25, tiebreak=(1,))
        scheduler.run()

    assert log == [
        ("a", 0.0, "start"),
        ("b", 0.25, "start"),
        ("a", 0.5, "mid"),
        ("b", 0.75, "mid"),
        ("a", 1.5, "end"),
        ("b", 1.75, "end"),
    ]


def test_clock_is_monotonic_and_jumps_to_event_times():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    seen = []
    with scheduler:
        for when in (3.0, 1.0, 2.0):
            scheduler.call_at(when, lambda w=when: seen.append((w, clock.now)))
        scheduler.run()
    assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert clock.now == 3.0


def test_delivery_beats_timeout_at_same_instant():
    """The timeout-vs-response race: a packet arriving exactly at the
    deadline is delivered first, so the waiter sees the answer."""
    scheduler, _ = make_scheduler()
    order = []
    with scheduler:
        scheduler.call_at(
            5.0, lambda: order.append("timeout"), priority=Priority.TIMEOUT
        )
        scheduler.call_at(
            5.0, lambda: order.append("delivery"), priority=Priority.DELIVERY
        )
        scheduler.call_at(
            5.0, lambda: order.append("timer"), priority=Priority.TIMER
        )
        scheduler.call_at(
            5.0, lambda: order.append("dispatch"), priority=Priority.DISPATCH
        )
        scheduler.run()
    assert order == ["delivery", "timeout", "dispatch", "timer"]


def test_timeout_vs_response_race_in_sessions():
    """Session-level regression: one session's delivery resume and
    another's timeout resume collide at t=1.0; the delivery must run
    first regardless of spawn order."""
    for flip in (False, True):
        scheduler, _ = make_scheduler()
        clock = scheduler.clock
        order = []

        def delivery():
            clock.advance(1.0, priority=Priority.DELIVERY)
            order.append("delivery")

        def timeout():
            clock.advance(1.0, priority=Priority.TIMEOUT)
            order.append("timeout")

        with scheduler:
            sessions = [("d", delivery), ("t", timeout)]
            if flip:
                sessions.reverse()
            for label, fn in sessions:
                scheduler.spawn(fn, label=label)
            scheduler.run()
        assert order == ["delivery", "timeout"], f"flip={flip}"


def test_tiebreak_overrides_insertion_order():
    scheduler, _ = make_scheduler()
    seen = []
    with scheduler:
        for user in (3, 1, 2, 0):
            scheduler.call_at(
                1.0,
                lambda u=user: seen.append(u),
                priority=Priority.DISPATCH,
                tiebreak=(user,),
            )
        scheduler.run()
    assert seen == [0, 1, 2, 3]


def test_seq_is_fifo_for_order_indifferent_events():
    scheduler, _ = make_scheduler()
    seen = []
    with scheduler:
        for i in range(4):
            scheduler.call_at(1.0, lambda i=i: seen.append(i))
        scheduler.run()
    assert seen == [0, 1, 2, 3]


def test_zero_delay_sleep_until_yields_to_same_time_events():
    """sleep_until(now) is a zero-length suspension: same-instant
    higher-priority events run before the session resumes."""
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    order = []

    def session():
        order.append("before")
        scheduler.call_at(
            clock.now, lambda: order.append("delivery"),
            priority=Priority.DELIVERY,
        )
        clock.sleep_until(clock.now, priority=Priority.TIMER)
        order.append("after")

    with scheduler:
        scheduler.spawn(session)
        scheduler.run()
    assert order == ["before", "delivery", "after"]


def test_sleep_until_past_deadline_clamps_to_now():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    readings = []

    def session():
        clock.advance(2.0)
        readings.append(clock.sleep_until(1.0))  # already past

    with scheduler:
        scheduler.spawn(session)
        scheduler.run()
    assert readings == [2.0]
    assert clock.now == 2.0


# ----------------------------------------------------------------------
# Hypothesis: insertion order is irrelevant given tiebreaks
# ----------------------------------------------------------------------

# Logical events: (time-in-quarters, priority, tiebreak-id).  Times are
# dyadic so float comparisons are exact.
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(list(Priority)),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=12,
    unique=True,
)


def run_journal(events, order):
    scheduler, journal = make_scheduler()
    with scheduler:
        for index in order:
            quarters, priority, tie = events[index]
            scheduler.call_at(
                quarters / 4.0,
                lambda: None,
                priority=priority,
                tiebreak=(tie,),
                label=f"e{tie}",
            )
        scheduler.run()
    return journal


@settings(max_examples=60, deadline=None)
@given(events=events_strategy, data=st.data())
def test_any_insertion_order_yields_identical_journal(events, data):
    baseline = run_journal(events, range(len(events)))
    for seed in (1, 2, 3):
        permutation = data.draw(
            st.permutations(range(len(events))), label=f"perm{seed}"
        )
        assert run_journal(events, permutation) == baseline


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_session_spawn_order_is_irrelevant_given_tiebreaks(data):
    """Full-stack variant: sessions that advance the clock produce the
    same journal whatever order they were spawned in."""
    specs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # start quarters
                st.integers(min_value=1, max_value=4),  # advance quarters
            ),
            min_size=1,
            max_size=6,
        )
    )

    def run_once(order):
        scheduler, journal = make_scheduler()
        clock = scheduler.clock

        def make(tie, advance_quarters):
            def session():
                clock.advance(advance_quarters / 4.0)
            return session

        with scheduler:
            for tie in order:
                start, advance = specs[tie]
                scheduler.spawn(
                    make(tie, advance),
                    at=start / 4.0,
                    label=f"s{tie}",
                    tiebreak=(tie,),
                )
            scheduler.run()
        return journal

    baseline = run_once(range(len(specs)))
    permutation = data.draw(st.permutations(range(len(specs))))
    assert run_once(permutation) == baseline


# ----------------------------------------------------------------------
# Admission control and the thread pool
# ----------------------------------------------------------------------


def test_admission_cap_bounds_concurrency_and_queues_fifo():
    scheduler, journal = make_scheduler(max_concurrent=2)
    clock = scheduler.clock
    finished = []

    def make(tie):
        def session():
            clock.advance(1.0)
            finished.append(tie)
        return session

    with scheduler:
        for tie in range(5):
            scheduler.spawn(make(tie), at=0.0, tiebreak=(tie,), label=f"s{tie}")
        stats = scheduler.run()

    assert stats.peak_active == 2
    assert stats.queued == 3
    assert stats.completed == 5
    # Pool threads are reused: never more than the admission cap.
    assert stats.threads_created <= 2
    # FIFO through the queue preserves tiebreak order.
    assert finished == [0, 1, 2, 3, 4]
    assert [label for _, kind, label in journal if kind == "queued"] == [
        "s2", "s3", "s4",
    ]


def test_pool_threads_are_reused_across_sessions():
    scheduler, _ = make_scheduler(max_concurrent=4)
    clock = scheduler.clock
    with scheduler:
        for tie in range(20):
            scheduler.spawn(
                lambda: clock.advance(0.25), at=tie * 1.0, tiebreak=(tie,)
            )
        stats = scheduler.run()
    assert stats.completed == 20
    assert stats.threads_created == 1  # sessions never overlap here
    # Out to the first session and back to run(): a finished session
    # starts the next one itself, and its own resumes switch no thread.
    assert stats.handoffs <= 2


# ----------------------------------------------------------------------
# Failure and misuse
# ----------------------------------------------------------------------


def test_session_exception_surfaces_as_scheduler_error():
    scheduler, _ = make_scheduler()

    def boom():
        raise ValueError("lost my zone")

    with scheduler:
        scheduler.spawn(boom, label="broken")
        with pytest.raises(SchedulerError, match="broken"):
            scheduler.run()
    assert scheduler.stats.failed == 1


def test_failure_cause_is_preserved():
    scheduler, _ = make_scheduler()

    def boom():
        raise KeyError("cache")

    with scheduler:
        scheduler.spawn(boom)
        with pytest.raises(SchedulerError) as info:
            scheduler.run()
    assert isinstance(info.value.__cause__, KeyError)


def test_wait_until_outside_session_is_rejected():
    scheduler, _ = make_scheduler()
    with scheduler:
        with pytest.raises(SchedulerError):
            scheduler.wait_until(1.0)


def test_scheduling_in_the_past_is_rejected():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    with scheduler:
        scheduler.call_at(5.0, lambda: None)
        scheduler.run()
        assert clock.now == 5.0
        with pytest.raises(ValueError):
            scheduler.call_at(4.0, lambda: None)


def test_run_until_stops_before_later_events():
    scheduler, _ = make_scheduler()
    seen = []
    with scheduler:
        scheduler.call_at(1.0, lambda: seen.append(1.0))
        scheduler.call_at(10.0, lambda: seen.append(10.0))
        scheduler.run(until=5.0)
        assert seen == [1.0]
        assert scheduler.pending() == 1
        scheduler.run()
    assert seen == [1.0, 10.0]


def test_clock_rejects_second_scheduler_and_unbinds_on_close():
    clock = SimClock()
    scheduler = EventScheduler(clock)
    with pytest.raises(Exception):
        EventScheduler(clock)
    scheduler.close()
    assert clock.scheduler is None
    # After close, serial semantics return.
    clock.advance(1.5)
    assert clock.now == 1.5
    # And a fresh scheduler can bind again.
    with EventScheduler(clock) as second:
        assert clock.scheduler is second


def test_serial_clock_without_scheduler_is_untouched():
    clock = SimClock()
    clock.advance(2.0)
    clock.sleep_until(3.0)
    clock.sleep_until(1.0)  # past: clamps, no-op
    assert clock.now == 3.0


# ----------------------------------------------------------------------
# Baton passing: loop work runs on whichever thread holds the baton
# ----------------------------------------------------------------------


@pytest.mark.parametrize("in_flight", [False, True])
def test_timer_exception_surfaces_unwrapped(in_flight):
    """A callback's exception reaches the caller of ``run()`` as itself,
    also when a suspended session's thread ran the callback."""
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    ran_on = []

    def boom():
        ran_on.append(threading.current_thread())
        raise KeyError("window")

    with scheduler:
        if in_flight:
            scheduler.spawn(lambda: clock.advance(2.0), label="waiting")
        scheduler.call_at(1.0, boom)
        with pytest.raises(KeyError, match="window"):
            scheduler.run()
    assert (ran_on[0] is threading.current_thread()) is not in_flight


def test_advance_inside_timer_mutates_clock_serially():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    seen = []

    def session():
        clock.advance(2.0)
        seen.append(("session", clock.now))

    def timer():
        seen.append(("in_session", scheduler.in_session()))
        seen.append(("advanced", clock.advance(0.5)))

    with scheduler:
        scheduler.spawn(session)
        scheduler.call_at(1.0, timer)
        scheduler.run()
    assert seen == [
        ("in_session", False),
        ("advanced", 1.5),
        ("session", 2.0),
    ]


def test_run_until_then_run_resumes_suspended_sessions():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    readings = []

    def session():
        for _ in range(3):
            clock.advance(1.0)
            readings.append(clock.now)

    with scheduler:
        scheduler.spawn(session)
        scheduler.run(until=1.5)
        assert readings == [1.0]
        assert scheduler.pending() == 1
        scheduler.run()
    assert readings == [1.0, 2.0, 3.0]


def test_close_after_failed_run_aborts_suspended_sessions():
    threads_before = threading.active_count()
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    resumed = []

    def waiting():
        clock.advance(10.0)
        resumed.append(clock.now)

    def boom():
        clock.advance(1.0)
        raise ValueError("lost my zone")

    scheduler.spawn(waiting, label="waiting")
    scheduler.spawn(boom, label="broken")
    with pytest.raises(SchedulerError, match="broken"):
        scheduler.run()
    scheduler.close()
    assert resumed == []
    assert threading.active_count() == threads_before


def test_session_blocked_outside_the_clock_is_named(monkeypatch):
    """A session waiting on a real event would hang the run; instead
    ``run()`` closes the scheduler and raises once a whole baton
    interval passes with no event popped.  ``close()`` still returns."""
    monkeypatch.setattr(sched, "BATON_TIMEOUT", 0.05)
    never = threading.Event()
    scheduler, _ = make_scheduler()
    clock = scheduler.clock

    def stuck():
        clock.advance(1.0)
        never.wait()

    scheduler.spawn(lambda: clock.advance(5.0), label="fine")
    scheduler.spawn(stuck, label="stuck-on-a-lock")
    with pytest.raises(SchedulerError, match="stuck-on-a-lock"):
        scheduler.run()
    assert clock.scheduler is None
    scheduler.close()
    # Let the stuck thread finish so it does not outlive the test.
    stuck_threads = [
        thread for thread in threading.enumerate()
        if thread.name.startswith("sim-session-")
    ]
    never.set()
    for thread in stuck_threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
