"""Discrete-event scheduler: many concurrent clients on one universe.

The paper's setting is a DLV registry observing traffic aggregated from
*millions* of stubs, but the resolver core is deliberately synchronous
— a stub query runs ``network.query → resolver.handle → nested
network.query`` to completion.  This module makes those synchronous
resolutions *resumable sessions* on a priority queue of timestamped
events, so many stub clients overlap in simulated time on one shared
universe (shared resolver caches, shared latency/fault RNG state,
shared registry) without rewriting a line of the resolver.

How a session suspends
----------------------

Every session runs on its own pool thread, but **exactly one thread is
ever runnable**: the one holding the *baton*.  Each pool thread, and
the thread inside :meth:`EventScheduler.run`, owns a lock (its
*gate*) and blocks on it while someone else holds the baton.  Whoever
holds the baton runs the event loop itself: it pops the next event
and, if that event belongs to another thread (a session to resume or
start), releases that thread's gate and blocks on its own.

A session suspends only inside :meth:`SimClock.advance` /
:meth:`SimClock.sleep_until`, which push a wake-up event and run the
loop on the session's own thread.  If the next event is that very
wake-up — the common case for a cache hit — the call returns with no
thread switch at all.  Timer callbacks run inline on whichever thread
holds the baton, with :meth:`EventScheduler.in_session` reading False
so a ``clock.advance`` inside one mutates the clock serially.  A
session that finishes keeps the baton and starts the next admitted
session itself when it can.  When the queue drains, passes ``until``
or records a failure, the baton goes back to ``run()``.

Events therefore pop in exactly the order a dedicated loop thread
would pop them, on one runnable thread at a time.  That is what keeps
the simulation deterministic: there is no preemption, no lock
contention, and shared RNG streams (latency jitter, fault rolls) are
consumed in event order, which the queue makes reproducible.

Every gate wait is bounded by :data:`BATON_TIMEOUT`.  A session that
blocks outside the simulated clock (on a real lock, say) would
otherwise hang the run silently; instead ``run()`` raises
:class:`SchedulerError` naming it once a whole interval passes with no
event popped.

Event ordering and determinism
------------------------------

The queue orders events by the tuple ``(time, priority, tiebreak,
seq)``:

1. ``time`` — simulated seconds; the loop never moves backwards.
2. ``priority`` — :class:`Priority`: at the same instant, response
   **deliveries** beat **timeout** expiries (a packet that arrives as
   the timer fires is *answered*, not dropped), timeouts beat new
   client **dispatches**, and background **timers** run last.
3. ``tiebreak`` — a caller-supplied tuple of ints (e.g. ``(user_id,
   query_index)``) that fixes the order of same-time same-priority
   events *independently of heap-insertion order*.
4. ``seq`` — insertion sequence, the final resort for events the
   caller declared order-indifferent.

Given equal tiebreaks, any legal insertion order of the same logical
events therefore dispatches identically — the property test in
``tests/netsim/test_sched.py`` enforces it.

Bounded concurrency
-------------------

``max_concurrent`` caps in-flight sessions (and therefore pool
threads): surplus dispatches queue FIFO and start the moment a slot
frees, which both bounds memory at population scale and models
resolver-side admission queueing.  Pool threads are reused across
sessions, so a million-query replay churns zero threads after warm-up.

``max_queue`` additionally bounds the admission queue itself: when the
FIFO is full a new session is **rejected** instead of queued — the
load-shedding a real resolver applies when its accept queue overflows
during a retry storm.  Rejections are counted in
:attr:`SchedulerStats.rejected` and reported to the optional
``on_reject`` callback so a replay driver can account the shed query
(the chaos replay counts it as a failed stub query).  The default
``max_queue=None`` keeps the queue unbounded — the pre-existing
behaviour, byte for byte.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import threading
from typing import Any, Callable, Deque, List, Optional, Tuple

from collections import deque

from .clock import SimClock

#: Longest one gate wait blocks before it looks for progress, in
#: seconds.  ``run()`` raises :class:`SchedulerError` when a whole
#: interval passes without an event being popped.
BATON_TIMEOUT = 120.0


class Priority(enum.IntEnum):
    """Same-instant event ordering (smaller runs first)."""

    #: A response arriving / an RTT elapsing.
    DELIVERY = 0
    #: A loss-timeout expiring.  Losing to DELIVERY at the same instant
    #: is deliberate: a response that arrives exactly at the deadline is
    #: delivered, not discarded.
    TIMEOUT = 1
    #: A new client query entering the system.
    DISPATCH = 2
    #: Background timers: fault windows, aggregation-window boundaries.
    TIMER = 3


class SchedulerError(RuntimeError):
    """Misuse of the event scheduler (re-entry, calls after close, …)."""


class _SessionAborted(BaseException):
    """Internal: unwinds a suspended session when the pool closes."""


@dataclasses.dataclass
class SchedulerStats:
    """Operational counters for one scheduler lifetime (kept out of
    experiment results, like :class:`~repro.core.parallel.ExecutorHealth`).

    ``threads_created`` and ``handoffs`` (baton passes between threads)
    are physical: they describe the host run, not the simulation."""

    spawned: int = 0
    completed: int = 0
    failed: int = 0
    resumes: int = 0
    timers: int = 0
    queued: int = 0
    rejected: int = 0
    peak_active: int = 0
    peak_queue: int = 0
    threads_created: int = 0
    handoffs: int = 0

    def describe(self) -> str:
        return (
            f"sessions={self.completed}/{self.spawned} "
            f"resumes={self.resumes} timers={self.timers} "
            f"queued={self.queued} rejected={self.rejected} "
            f"peak_active={self.peak_active} "
            f"peak_queue={self.peak_queue} threads={self.threads_created} "
            f"handoffs={self.handoffs}"
        )


class Session:
    """One resumable client session (a unit of concurrent work)."""

    __slots__ = ("fn", "label", "tiebreak", "done", "started_at", "finished_at")

    def __init__(self, fn: Callable[[], None], label: str, tiebreak: Tuple[int, ...]):
        self.fn = fn
        self.label = label
        self.tiebreak = tiebreak
        self.done = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None


def _closed_gate() -> "threading.Lock":
    gate = threading.Lock()
    gate.acquire()
    return gate


class _Worker(threading.Thread):
    """A pooled session runner that runs the loop while it holds the baton."""

    def __init__(self, scheduler: "EventScheduler", index: int):
        super().__init__(name=f"sim-session-{index}", daemon=True)
        self.scheduler = scheduler
        #: Released by the thread that passes this worker the baton.
        self.gate = _closed_gate()
        self.session: Optional[Session] = None

    def run(self) -> None:  # pragma: no branch - thread body
        scheduler = self.scheduler
        scheduler._wait(self.gate)
        while not scheduler._closing:
            session = self.session
            assert session is not None
            try:
                session.fn()
            except _SessionAborted:
                return
            except BaseException as exc:  # noqa: BLE001 - reported to run()
                scheduler._note_failure(session, exc)
            scheduler._finish_session(self, session)
            # Still holding the baton: run the loop until this worker is
            # handed a new session (or the pool closes).
            scheduler._dispatch(self.gate)


class EventScheduler:
    """A deterministic discrete-event loop over a :class:`SimClock`.

    Typical population-scale use::

        clock = universe.clock
        with EventScheduler(clock, max_concurrent=256) as scheduler:
            for arrival in arrivals:           # or feed lazily
                scheduler.spawn(make_session(arrival), at=arrival.time,
                                tiebreak=(arrival.user, arrival.index))
            scheduler.run()

    The ``with`` block binds the scheduler to the clock (so
    ``clock.advance`` inside sessions suspends instead of mutating) and
    unbinds + tears the thread pool down on exit.
    """

    def __init__(
        self,
        clock: SimClock,
        max_concurrent: int = 256,
        journal: Optional[List[Tuple[float, str, str]]] = None,
        max_queue: Optional[int] = None,
        on_reject: Optional[Callable[[Session], None]] = None,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0 (or None for unbounded)")
        self._clock = clock
        self._max_concurrent = max_concurrent
        #: Admission-queue capacity (``None`` = unbounded FIFO).  A
        #: session arriving with all slots busy and the queue full is
        #: rejected: it never runs, ``stats.rejected`` increments, and
        #: ``on_reject`` (if any) is invoked with the shed session.
        self._max_queue = max_queue
        self._on_reject = on_reject
        #: Optional dispatch journal: ``(time, kind, label)`` appended in
        #: execution order — the determinism fingerprint the property
        #: tests compare.  ``None`` (default) records nothing.
        self.journal = journal
        self.stats = SchedulerStats()
        self._heap: List[Tuple[float, int, Tuple[int, ...], int, Tuple[Any, ...]]] = []
        self._seq = 0
        #: The gate of whichever thread is inside :meth:`run`.
        self._gate = _closed_gate()
        #: The worker last handed the baton (``None``: the run thread).
        self._holder: Optional[_Worker] = None
        self._until: Optional[float] = None
        #: True while a timer callback runs inline on the baton holder.
        self._in_loop = False
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._admission: Deque[Session] = deque()
        self._active = 0
        self._running = False
        self._closing = False
        #: What the current ``run()`` raises when the baton returns: a
        #: wrapped session failure, or a timer callback's own exception.
        self._failure: Optional[BaseException] = None
        clock.bind_scheduler(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def clock(self) -> SimClock:
        return self._clock

    def in_session(self) -> bool:
        """True when the calling thread is one of this scheduler's
        session threads running its session, not a timer callback (the
        clock uses this to decide suspend-vs-mutate)."""
        if self._in_loop:
            return False
        current = threading.current_thread()
        return isinstance(current, _Worker) and current.scheduler is self

    def pending(self) -> int:
        """Events still queued (suspended sessions, future dispatches,
        timers) plus sessions waiting for an admission slot."""
        return len(self._heap) + len(self._admission)

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------

    def _push(
        self,
        when: float,
        priority: int,
        tiebreak: Tuple[int, ...],
        payload: Tuple[Any, ...],
    ) -> None:
        if self._closing:
            raise SchedulerError("scheduler is closed")
        if when < self._clock.now:
            raise ValueError(
                f"cannot schedule at {when!r}: clock is at {self._clock.now!r}"
            )
        self._seq += 1
        heapq.heappush(
            self._heap, (when, int(priority), tuple(tiebreak), self._seq, payload)
        )

    def spawn(
        self,
        fn: Callable[[], None],
        *,
        at: Optional[float] = None,
        label: str = "",
        tiebreak: Tuple[int, ...] = (),
    ) -> Session:
        """Schedule a new session: *fn* runs (resumably) from simulated
        time *at* (default: now).  ``tiebreak`` fixes same-instant
        dispatch order independent of insertion order."""
        session = Session(fn, label, tuple(tiebreak))
        when = self._clock.now if at is None else at
        self._push(when, Priority.DISPATCH, session.tiebreak, ("start", session))
        self.stats.spawned += 1
        return session

    def call_at(
        self,
        when: float,
        fn: Callable[[], None],
        *,
        label: str = "",
        priority: int = Priority.TIMER,
        tiebreak: Tuple[int, ...] = (),
    ) -> None:
        """Schedule a plain callback (fault window, aggregation-window
        boundary).  It runs inline on whichever thread holds the baton,
        so it must not block or rely on thread-local state; a
        ``clock.advance`` inside it mutates the clock serially."""
        self._push(when, priority, tuple(tiebreak), ("call", fn, label))

    def wait_until(self, deadline: float, *, priority: Optional[int] = None) -> float:
        """Suspend the calling session until simulated *deadline*.

        Called (via :meth:`SimClock.advance` / ``sleep_until``) from
        inside a session thread; schedules the wake-up and runs the loop
        until it pops.  Returns the clock reading on resume — exactly
        *deadline*, the same float the serial path computes.
        """
        worker = threading.current_thread()
        if self._in_loop or not (
            isinstance(worker, _Worker) and worker.scheduler is self
        ):
            raise SchedulerError("wait_until() called outside a session")
        session = worker.session
        assert session is not None
        effective = Priority.DELIVERY if priority is None else priority
        self._push(
            max(deadline, self._clock.now),
            effective,
            session.tiebreak,
            ("resume", worker),
        )
        self._dispatch(worker.gate)
        if self._closing:
            raise _SessionAborted()
        return self._clock.now

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SchedulerStats:
        """Dispatch events in deterministic order until the queue is
        empty (or past *until*).  Raises the first session failure, if
        any, after winding down cleanly; a timer callback's exception
        propagates unwrapped.  Returns :attr:`stats`."""
        if self._running:
            raise SchedulerError("run() re-entered")
        if self.in_session():
            raise SchedulerError("run() called from inside a session")
        self._running = True
        self._until = until
        try:
            self._dispatch(self._gate)
        finally:
            self._running = False
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure
        return self.stats

    def _dispatch(self, gate: "threading.Lock") -> None:
        """Run the loop on the calling thread, which holds the baton,
        until the next event belongs to *gate*'s owner (the caller).  If
        it belongs to another thread, pass the baton there and wait for
        it to come back."""
        if self._closing:
            return
        target = self._next_gate()
        if target is not gate:
            self.stats.handoffs += 1
            target.release()
            self._wait(gate)

    def _next_gate(self) -> "threading.Lock":
        """Pop events, running timer callbacks inline, until one needs a
        thread; return that thread's gate (``run()``'s when done)."""
        heap = self._heap
        until = self._until
        stats = self.stats
        while heap and self._failure is None:
            if until is not None and heap[0][0] > until:
                break
            when, _priority, _tiebreak, _seq, payload = heapq.heappop(heap)
            self._clock._jump_to(when)
            kind = payload[0]
            if kind == "resume":
                worker = payload[1]
                stats.resumes += 1
                self._record("resume", worker.session)
                self._holder = worker
                return worker.gate
            if kind == "start":
                worker = self._admit(payload[1])
                if worker is not None:
                    self._holder = worker
                    return worker.gate
            elif kind == "call":
                _, fn, label = payload
                stats.timers += 1
                self._record_label("timer", label)
                self._call_inline(fn)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown event kind {kind!r}")
        self._holder = None
        return self._gate

    def _call_inline(self, fn: Callable[..., None], *args: Any) -> None:
        """Run loop work (a timer callback, ``on_reject``) on the baton
        holder; its exception is what ``run()`` raises."""
        self._in_loop = True
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - run() raises it
            self._failure = exc
        finally:
            self._in_loop = False

    def _wait(self, gate: "threading.Lock") -> None:
        """Block until the baton is passed to *gate*'s owner.  Workers
        give up only when the pool closes.  Once a whole
        :data:`BATON_TIMEOUT` passes with no event popped, the run
        thread closes the scheduler and raises."""
        popped = self._seq - len(self._heap)
        while not gate.acquire(True, BATON_TIMEOUT):
            if self._closing:
                return
            if gate is not self._gate:
                continue
            now_popped = self._seq - len(self._heap)
            if now_popped == popped:
                session = self._holder.session if self._holder else None
                if self._in_loop or session is None:
                    who = "a timer callback"
                else:
                    who = f"session {session.label or '<unnamed>'}"
                self.close()
                raise SchedulerError(
                    f"{who} has held the baton for {BATON_TIMEOUT}s "
                    f"without an event popping: it is blocked outside "
                    f"the simulated clock"
                )
            popped = now_popped

    def _admit(self, session: Session) -> Optional[_Worker]:
        if self._active >= self._max_concurrent:
            if (
                self._max_queue is not None
                and len(self._admission) >= self._max_queue
            ):
                session.done = True
                self.stats.rejected += 1
                self._record("rejected", session)
                if self._on_reject is not None:
                    self._call_inline(self._on_reject, session)
                return None
            self._admission.append(session)
            self.stats.queued += 1
            self.stats.peak_queue = max(self.stats.peak_queue, len(self._admission))
            self._record("queued", session)
            return None
        return self._activate(session)

    def _activate(self, session: Session) -> _Worker:
        self._active += 1
        self.stats.peak_active = max(self.stats.peak_active, self._active)
        session.started_at = self._clock.now
        if self._idle:
            worker = self._idle.pop()
        else:
            worker = _Worker(self, len(self._workers))
            self._workers.append(worker)
            self.stats.threads_created += 1
            worker.start()
        worker.session = session
        self._record("start", session)
        return worker

    def _finish_session(self, worker: _Worker, session: Session) -> None:
        """Worker-side epilogue (the worker holds the baton): release
        the slot, requeue the worker, pull the next admission."""
        session.done = True
        session.finished_at = self._clock.now
        worker.session = None
        self._active -= 1
        self._idle.append(worker)
        self.stats.completed += 1
        if self._admission and self._failure is None:
            queued = self._admission.popleft()
            # Starts at the instant the slot freed: admission queueing
            # delay is modelled, not hidden.
            self._push(
                self._clock.now, Priority.DISPATCH, queued.tiebreak,
                ("start", queued),
            )

    def _note_failure(self, session: Session, error: BaseException) -> None:
        self.stats.failed += 1
        if self._failure is None:
            failure = SchedulerError(
                f"session {session.label or '<unnamed>'!s} failed: {error!r}"
            )
            failure.__cause__ = error
            self._failure = failure

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------

    def _record(self, kind: str, session: Optional[Session]) -> None:
        if self.journal is not None:
            label = session.label if session is not None else ""
            self.journal.append((self._clock.now, kind, label))

    def _record_label(self, kind: str, label: str) -> None:
        if self.journal is not None:
            self.journal.append((self._clock.now, kind, label))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear down the pool and unbind the clock.  Suspended sessions
        (possible only after a failed run) are aborted, not resumed.  A
        session stuck outside the clock still holds the baton; it is
        left to its own thread."""
        if self._closing:
            return
        self._closing = True
        for worker in self._workers:
            if worker.gate.locked():
                worker.gate.release()
        for worker in self._workers:
            if worker is not self._holder:
                worker.join(timeout=5.0)
        self._workers.clear()
        self._idle.clear()
        self._admission.clear()
        self._heap.clear()
        if self._clock.scheduler is self:
            self._clock.bind_scheduler(None)

    def __enter__(self) -> "EventScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EventScheduler(t={self._clock.now:.6f}, "
            f"pending={self.pending()}, active={self._active})"
        )
