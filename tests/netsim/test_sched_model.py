"""The event scheduler against a single-threaded reference model.

The real scheduler runs sessions on pooled threads and passes a baton
between them; the reference below runs the same sessions as Python
generators on one thread, with no locks at all.  A Hypothesis state
machine spawns sessions (now or later), schedules timers that spawn
more, and runs the loop in slices (``run(until=...)``), under random
``max_concurrent`` / ``max_queue`` admission settings.  After every run
the dispatch journal, each session's clock readings, the shed sessions
and the clock must agree exactly with the model.  The whole machine
runs again with a one-microsecond thread switch interval, so any
reliance on the interpreter not preempting a thread shows up.
"""

import heapq
import sys
import threading
from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.netsim import EventScheduler, Priority, SimClock

PRIORITIES = st.sampled_from([None] + list(Priority))
#: One suspension: ``("advance", seconds, priority)`` or
#: ``("sleep", deadline, priority)``.
WAITS = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5]), PRIORITIES),
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 1.5, 3.0, 6.0]), PRIORITIES),
)
SCRIPTS = st.lists(WAITS, max_size=4)
TIEBREAKS = st.tuples(st.integers(0, 2))
OFFSETS = st.sampled_from([None, 0.0, 0.5, 2.0])


class Reference:
    """The scheduler's contract with no threads: sessions are generators
    that yield the deadline (and priority) of each suspension."""

    def __init__(self, max_concurrent, max_queue):
        self.max_concurrent, self.max_queue = max_concurrent, max_queue
        self.now, self.heap, self.seq = 0.0, [], 0
        self.active, self.admission = 0, deque()
        self.journal, self.readings, self.rejected = [], {}, []

    def push(self, when, priority, tiebreak, payload):
        self.seq += 1
        heapq.heappush(self.heap, (when, int(priority), tiebreak, self.seq, payload))

    def spawn(self, script, at, label, tiebreak):
        session = (label, script, tiebreak)
        self.push(self.now if at is None else at, Priority.DISPATCH, tiebreak,
                  ("start", session))

    def call_at(self, when, action, label, priority, tiebreak):
        self.push(when, priority, tiebreak, ("call", action, label))

    def run(self, until=None):
        while self.heap and (until is None or self.heap[0][0] <= until):
            self.now, _, _, _, payload = heapq.heappop(self.heap)
            if payload[0] == "resume":
                self.journal.append((self.now, "resume", payload[1][0]))
                self.step(payload[1])
            elif payload[0] == "start":
                self.admit(payload[1])
            else:
                self.journal.append((self.now, "timer", payload[2]))
                payload[1](self)

    def admit(self, session):
        label, script, tiebreak = session
        if self.active >= self.max_concurrent:
            if self.max_queue is not None and len(self.admission) >= self.max_queue:
                self.journal.append((self.now, "rejected", label))
                self.rejected.append(label)
            else:
                self.admission.append(session)
                self.journal.append((self.now, "queued", label))
            return
        self.active += 1
        self.journal.append((self.now, "start", label))
        self.step((label, self.suspensions(label, script), tiebreak))

    def suspensions(self, label, script):
        readings = self.readings[label] = [self.now]
        for kind, value, priority in script:
            target = self.now + value if kind == "advance" else max(self.now, value)
            yield target, priority
            readings.append(self.now)

    def step(self, running):
        label, suspensions, tiebreak = running
        try:
            deadline, priority = next(suspensions)
        except StopIteration:
            self.active -= 1
            if self.admission:
                queued = self.admission.popleft()
                self.push(self.now, Priority.DISPATCH, queued[2], ("start", queued))
            return
        self.push(max(deadline, self.now),
                  Priority.DELIVERY if priority is None else priority,
                  tiebreak, ("resume", running))


class SchedulerMachine(RuleBasedStateMachine):
    """Drives the real scheduler and the reference side by side."""

    @initialize(
        max_concurrent=st.sampled_from([1, 2, 3, 256]),
        max_queue=st.sampled_from([None, 0, 1, 2]),
    )
    def setup(self, max_concurrent, max_queue):
        self.threads_before = threading.active_count()
        self.journal, self.readings, self.rejected = [], {}, []
        self.scheduler = EventScheduler(
            SimClock(), max_concurrent=max_concurrent, journal=self.journal,
            max_queue=max_queue,
            on_reject=lambda session: self.rejected.append(session.label),
        )
        self.model = Reference(max_concurrent, max_queue)
        self.labels = 0

    def label(self, prefix):
        self.labels += 1
        return f"{prefix}{self.labels}"

    def session(self, label, script):
        clock = self.scheduler.clock

        def run():
            readings = self.readings[label] = [clock.now]
            for kind, value, priority in script:
                if kind == "advance":
                    clock.advance(value, priority=priority)
                else:
                    clock.sleep_until(value, priority=priority)
                readings.append(clock.now)
        return run

    def spawn_both(self, script, offset, tiebreak):
        label = self.label("s")
        self.scheduler.spawn(
            self.session(label, script), at=self.at(self.scheduler.now, offset),
            label=label, tiebreak=tiebreak,
        )
        self.model.spawn(script, self.at(self.model.now, offset), label, tiebreak)

    @staticmethod
    def at(now, offset):
        return None if offset is None else now + offset

    @rule(script=SCRIPTS, offset=OFFSETS, tiebreak=TIEBREAKS)
    def spawn(self, script, offset, tiebreak):
        self.spawn_both(script, offset, tiebreak)

    @rule(
        delay=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        priority=st.sampled_from(list(Priority)),
        tiebreak=TIEBREAKS,
        spawns=st.lists(st.tuples(SCRIPTS, OFFSETS, TIEBREAKS), max_size=2),
    )
    def call_at(self, delay, priority, tiebreak, spawns):
        """A timer that spawns sessions when it fires, in each world."""
        spawns = [(self.label("s"),) + spawn for spawn in spawns]
        when = self.scheduler.now + delay
        scheduler = self.scheduler

        def fire():
            for label, script, offset, spawn_tiebreak in spawns:
                scheduler.spawn(
                    self.session(label, script), at=self.at(scheduler.now, offset),
                    label=label, tiebreak=spawn_tiebreak,
                )

        def model_fire(model):
            for label, script, offset, spawn_tiebreak in spawns:
                model.spawn(script, self.at(model.now, offset), label, spawn_tiebreak)

        label = self.label("t")
        scheduler.call_at(when, fire, label=label, priority=priority,
                          tiebreak=tiebreak)
        self.model.call_at(when, model_fire, label, priority, tiebreak)

    @rule(span=st.sampled_from([None, 0.0, 1.0, 2.5]))
    def run(self, span):
        until = None if span is None else self.scheduler.now + span
        self.scheduler.run(until=until)
        self.model.run(until)
        self.check()

    def check(self):
        assert self.journal == self.model.journal
        assert self.readings == self.model.readings
        assert self.rejected == self.model.rejected
        assert self.scheduler.now == self.model.now

    def teardown(self):
        self.scheduler.run()
        self.model.run()
        self.check()
        self.scheduler.close()
        assert threading.active_count() == self.threads_before


MODEL_SETTINGS = settings(max_examples=60, stateful_step_count=25, deadline=None)


def test_scheduler_matches_reference_model():
    run_state_machine_as_test(SchedulerMachine, settings=MODEL_SETTINGS)


def test_scheduler_matches_reference_model_under_tiny_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_state_machine_as_test(SchedulerMachine, settings=MODEL_SETTINGS)
    finally:
        sys.setswitchinterval(interval)
