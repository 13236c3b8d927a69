"""The traced run's per-layer ledger.

The benchmark wraps public functions of each ``repro`` module from
outside (``install``) and records one span per call: name, start, end,
parent span, thread and request.  The request is the enclosing
``StubClient.query`` span.  Spans stay in memory per thread; forked
fleet workers append theirs to a file after each cell, because
multiprocessing children leave through ``os._exit`` and skip ``atexit``.

A span's self time is the part of its busy time that no child's busy
time covers.  Busy time is the span's interval minus the scheduler
suspensions and sleeps (``wait`` spans) on its own thread.  A session
span's parent is the ``EventScheduler.run`` span that dispatches it on
the event-loop thread, so that span's self time is its
duration minus the session work it dispatched: loop bookkeeping plus
thread handoff.  Summed over one process, self times cover the root
span exactly, whatever the threads.

Self time of a ``RUNNERS`` span is code between the boundaries the
benchmark wraps, so it is unattributed, not any layer's: a callee left
unwrapped lowers ``trace.attributed_ratio``.
"""

import bisect
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from spec import LAYERS

#: Scheduler suspensions and sleeps: their time belongs to no layer.
WAIT = "wait"
#: The root span of one stub request.
REQUEST = "resolver.stub_query"
#: The benchmark's own root around the timed phase; its self time is the
#: phase time no layer accounts for.
PHASE = "phase"
#: Spans around drivers, which give the trace its shape: the timed
#: phase, the experiment and replay runners, replay sessions and timer
#: events, the stored sweep and fleet cells.
RUNNERS = frozenset({
    PHASE, "core.experiment", "core.replay.drive", "core.replay.session",
    "core.replay.event", "core.store.sweep", "core.fleet.cell",
})

# Span record layout.
SID, PARENT, NAME, START, END, TID, REQ = range(7)


class _ThreadState:
    __slots__ = ("tid", "stack", "buffer", "request")

    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.buffer = []
        self.request = None


class Recorder:
    """In-memory span sink, one buffer per thread."""

    def __init__(self, spill_dir=None):
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.counts = defaultdict(int)
        self.resolvers = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.pid = os.getpid()
        self.counts.clear()
        self.resolvers.clear()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._ids = itertools.count(1)
        self._tids = itertools.count(1)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(next(self._tids))
            with self._lock:
                self._buffers.append(state.buffer)
            self._local.state = state
        return state

    def current(self):
        """The innermost open span on the calling thread, or None."""
        stack = self._state().stack
        return stack[-1] if stack else None

    def call(self, name, fn, args=(), kwargs=None, parent=None):
        """Run ``fn`` inside a span; ``parent`` defaults to the calling
        thread's innermost open span."""
        state = self._state()
        if parent is None and state.stack:
            parent = state.stack[-1]
        sid = next(self._ids)
        outer_request = state.request
        if name == REQUEST:
            state.request = sid
        state.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            state.stack.pop()
            state.buffer.append(
                (sid, parent, name, start, end, state.tid, state.request)
            )
            state.request = outer_request

    def spans(self):
        """Every span recorded in this process so far."""
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def harvest_resolvers(self):
        """Fold the retry and serve-stale counters of every resolver
        built so far into ``counts``."""
        for resolver in self.resolvers:
            self.counts["resolver.retries"] += resolver.engine.retries
            self.counts["resolver.stale_served"] += resolver.engine.stale_served
        self.resolvers.clear()

    def flush(self):
        """Append this process's new spans and counts to its spill file
        (forked workers only) and clear them."""
        if self.spill_dir is None:
            return
        from repro import perf

        self.harvest_resolvers()
        with self._lock:
            spans = [span for buffer in self._buffers for span in buffer]
            for buffer in self._buffers:
                buffer.clear()
        record = {
            "spans": spans,
            "counts": dict(self.counts),
            "hotpath": perf.hotpath_cache_stats(),
        }
        self.counts.clear()
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"{self.pid}.jsonl", "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")


def load_spills(spill_dir):
    """Per worker process: (spans, summed counts, last hot-path stats)."""
    processes = []
    spill_dir = Path(spill_dir)
    if not spill_dir.is_dir():
        return processes
    for path in sorted(spill_dir.glob("*.jsonl")):
        spans, counts, hotpath = [], defaultdict(int), {}
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            spans.extend(tuple(span) for span in record["spans"])
            for name, value in record["counts"].items():
                counts[name] += value
            hotpath = record["hotpath"]
        processes.append((spans, counts, hotpath))
    return processes


# ----------------------------------------------------------------------
# Wrapping the package's public functions
# ----------------------------------------------------------------------

def _wrap(recorder, owner, attr, name, on_return=None):
    real = getattr(owner, attr)

    @functools.wraps(real)
    def traced(*args, **kwargs):
        result = recorder.call(name, real, args, kwargs)
        if on_return is not None:
            on_return(result)
        return result

    setattr(owner, attr, traced)


def _count(recorder, owner, attr, name):
    """Count calls without a span: the function is smaller than a span."""
    real = getattr(owner, attr)
    counts = recorder.counts

    @functools.wraps(real)
    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    setattr(owner, attr, counted)


def install(recorder):
    """Wrap the package's layer boundaries for the rest of the process."""
    import repro.core.chaos_replay as chaos_replay
    import repro.core.distrib as distrib
    import repro.core.replay as replay
    import repro.core.store as store
    import repro.crypto.keys as keys
    import repro.netsim.network as network
    import repro.resolver.validator as validator
    import repro.servers.dlv_registry as dlv_registry
    import repro.zones.zone as zone
    from repro.core.experiment import LeakageExperiment
    from repro.core.metrics import MetricsRegistry
    from repro.dnscore import Message
    from repro.netsim.sched import EventScheduler
    from repro.resolver.cache import RRsetCache
    from repro.resolver.engine import IterativeEngine
    from repro.resolver.lookaside import DlvLookaside
    from repro.resolver.recursive import RecursiveResolver, StubClient
    from repro.servers.authoritative import AuthoritativeServer
    from repro.workloads.alexa import AlexaWorkload
    from repro.workloads.universe import Universe

    counts = recorder.counts

    def wrap(owner, attr, name, on_return=None):
        _wrap(recorder, owner, attr, name, on_return)

    # Set-up: workload population, universe, registry, keys, signatures.
    wrap(AlexaWorkload, "registry_filler", "workloads.registry_filler")
    wrap(Universe, "__init__", "workloads.universe_build")
    wrap(Universe, "make_resolver", "workloads.make_resolver",
         recorder.resolvers.append)
    wrap(dlv_registry.DlvRegistryZone, "__init__", "servers.dlv_registry_build")
    wrap(keys, "generate_keypair", "crypto.keygen")
    wrap(zone, "sign_rrset", "zones.sign")
    wrap(dlv_registry, "sign_rrset", "zones.sign")

    # Resolution.
    wrap(StubClient, "query", REQUEST)
    wrap(RecursiveResolver, "handle", "resolver.handle")
    wrap(RecursiveResolver, "resolve", "resolver.resolve")

    def cache_result(result):
        if result is not None:
            counts["resolver.cache_get_hits"] += 1

    wrap(RRsetCache, "get", "resolver.cache_get", cache_result)
    wrap(validator.Validator, "validate_outcome", "resolver.validate")
    wrap(validator, "verify_rrset_signature", "zones.verify")
    wrap(zone, "verify_rrset_signature", "zones.verify")
    wrap(DlvLookaside, "try_lookaside", "resolver.lookaside")
    wrap(IterativeEngine, "send_query", "resolver.send_query")
    wrap(AuthoritativeServer, "handle", "servers.handle")
    wrap(network, "encode_message", "dnscore.encode")
    wrap(network, "decode_message", "dnscore.decode")
    wrap(Message, "wire_size", "dnscore.wire_size")
    wrap(network.Network, "query", "netsim.network_query")

    # Scheduler: the loop, suspensions, and sessions parented to the
    # loop-thread span that spawned them.
    def sched_stats(stats):
        counts["netsim.sched.resumes"] += stats.resumes
        counts["netsim.sched.timers"] += stats.timers
        counts["netsim.sched.threads_created"] += stats.threads_created
        counts["netsim.sched.peak_active"] = max(
            counts["netsim.sched.peak_active"], stats.peak_active
        )

    wrap(EventScheduler, "wait_until", WAIT)
    real_run = EventScheduler.run
    real_spawn = EventScheduler.spawn
    real_call_at = EventScheduler.call_at
    #: scheduler -> its ``run`` span, the parent of the sessions it runs.
    loop_spans = {}

    def run(scheduler, *args, **kwargs):
        def loop():
            loop_spans[id(scheduler)] = recorder.current()
            try:
                return real_run(scheduler, *args, **kwargs)
            finally:
                del loop_spans[id(scheduler)]

        stats = recorder.call("netsim.sched.run", loop)
        sched_stats(stats)
        return stats

    def spawn(scheduler, fn, **kwargs):
        parent = loop_spans.get(id(scheduler), recorder.current())

        def session():
            return recorder.call("core.replay.session", fn, parent=parent)

        return real_spawn(scheduler, session, **kwargs)

    def call_at(scheduler, when, fn, **kwargs):
        def event():
            return recorder.call("core.replay.event", fn)

        return real_call_at(scheduler, when, event, **kwargs)

    # The wrappers' own work sits inside the scheduler's spans, not in
    # the replay's runner spans that call them.
    def traced_spawn(*args, **kwargs):
        return recorder.call("netsim.sched.spawn", spawn, args, kwargs)

    def traced_call_at(*args, **kwargs):
        return recorder.call("netsim.sched.call_at", call_at, args, kwargs)

    EventScheduler.run = functools.wraps(real_run)(run)
    EventScheduler.spawn = functools.wraps(real_spawn)(traced_spawn)
    EventScheduler.call_at = functools.wraps(real_call_at)(traced_call_at)

    # The replay's arrival stream, one span per arrival, where
    # ``repro.core.replay`` looks the generator up.
    real_arrivals = replay.iter_replay_arrivals

    def iter_replay_arrivals(*args, **kwargs):
        arrivals = real_arrivals(*args, **kwargs)
        while True:
            try:
                yield recorder.call("workloads.arrivals", next, (arrivals,))
            except StopIteration:
                return

    replay.iter_replay_arrivals = functools.wraps(real_arrivals)(iter_replay_arrivals)

    # Experiment runners, metrics and folds.
    wrap(LeakageExperiment, "run", "core.experiment")
    wrap(chaos_replay, "drive_replay_sessions", "core.replay.drive")
    wrap(replay, "merge_replay_windows", "core.window_merge")
    _count(recorder, MetricsRegistry, "inc", "core.metrics_inc")

    # Store and fleet.
    wrap(store, "run_stored_sweep", "core.store.sweep")
    wrap(store, "merge_shard_results", "core.parallel.merge")
    wrap(store.ResultStore, "commit", "core.store.commit")
    wrap(distrib.DistributedExecutor, "run_with_quarantine",
         "core.distrib.executor")
    wrap(distrib.ExecutorBoard, "execute", "core.fleet.cell")
    wrap(distrib.ExecutorBoard, "commit", "core.distrib.board_commit")
    wrap(distrib, "claim_cell", "core.distrib.claim")
    wrap(distrib, "renew_lease", "core.distrib.renew")

    def flush_worker(_result):
        if os.getpid() != parent_pid:
            recorder.flush()

    parent_pid = os.getpid()
    wrap(distrib, "release_lease", "core.distrib.release", flush_worker)

    # Sleeps are waits: the fleet's parent polls its workers, and a
    # worker idles while every open cell is leased to a peer.
    # ``drain_board`` bound ``time.sleep`` as a default at import.
    real_sleep = time.sleep
    real_drain = distrib.drain_board

    def sleep(seconds):
        return recorder.call(WAIT, real_sleep, (seconds,))

    def drain_board(*args, **kwargs):
        kwargs.setdefault("sleep", sleep)
        return real_drain(*args, **kwargs)

    time.sleep = sleep
    distrib.drain_board = functools.wraps(real_drain)(drain_board)
    wrap(distrib, "drain_board", "core.distrib.drain", flush_worker)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def _merge(intervals):
    """Sorted union of half-open intervals."""
    merged = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _length(intervals):
    return sum(end - start for start, end in intervals)


def _overlap(left, right):
    """Length of the intersection of two sorted, merged interval lists."""
    total = i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        end = min(left[i][1], right[j][1])
        if end > start:
            total += end - start
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans):
    """Self time of every span of one process, keyed by span id.

    ``spans`` are records ``(sid, parent, name, start, end, tid, req)``.
    A parent id not among them (a span opened before a fork) makes the
    span a root.
    """
    by_id = {span[SID]: span for span in spans}
    waits = defaultdict(list)
    for span in spans:
        if span[NAME] == WAIT:
            waits[span[TID]].append((span[START], span[END]))
    for intervals in waits.values():
        intervals.sort()
    wait_starts = {tid: [w[0] for w in ws] for tid, ws in waits.items()}

    def busy(span):
        if span[NAME] == WAIT:
            return []
        start, end = span[START], span[END]
        holes = waits.get(span[TID])
        if not holes:
            return [[start, end]]
        index = bisect.bisect_left(wait_starts[span[TID]], start)
        pieces, cursor = [], start
        while index < len(holes) and holes[index][0] < end:
            hole_start, hole_end = holes[index]
            if hole_start > cursor:
                pieces.append([cursor, hole_start])
            cursor = max(cursor, hole_end)
            index += 1
        if cursor < end:
            pieces.append([cursor, end])
        return pieces

    busy_of = {span[SID]: busy(span) for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] in by_id:
            children[span[PARENT]].extend(busy_of[span[SID]])
    result = {}
    for span in spans:
        own = busy_of[span[SID]]
        covered = _merge(children.get(span[SID], ()))
        result[span[SID]] = _length(own) - _overlap(own, covered)
    return result


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _memo_hit_ratio(hotpath_stats):
    hits = misses = 0
    for stats in hotpath_stats:
        memo = stats.get("crypto.verify_memo", {})
        hits += memo.get("hits", 0)
        misses += memo.get("misses", 0)
    return _ratio(hits, hits + misses)


def _phase_members(spans):
    """Ids of the spans under a ``phase`` span, across threads."""
    parent_of = {span[SID]: span[PARENT] for span in spans}
    verdict = {span[SID]: True for span in spans if span[NAME] == PHASE}
    for span in spans:
        chain, sid = [], span[SID]
        while sid in parent_of and sid not in verdict:
            chain.append(sid)
            sid = parent_of[sid]
        answer = verdict.get(sid, False)
        for member in chain:
            verdict[member] = answer
    return {sid for sid, inside in verdict.items() if inside}


def ledger_metrics(processes, phase_s, workers=2):
    """Per-layer metrics from every process's spans.

    ``processes`` holds ``(spans, counts, hotpath_stats, is_worker)``
    per process; the parent process holds the ``phase`` root span.
    ``<layer>.self_s`` covers the timed phase only: the parent's spans
    under ``phase`` and every worker span.  ``unattributed_s`` is the
    self time of ``RUNNERS`` spans there, and ``trace.attributed_ratio``
    its complement as a share of all self time there, which is the
    phase's busy time plus the workers'.
    """
    self_by_name = defaultdict(float)
    layer_self = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    worker_inclusive = defaultdict(float)
    stub_durations = []
    unattributed = busy = 0.0
    for spans, process_counts, _, is_worker in processes:
        selfs = self_times(spans)
        in_phase = _phase_members(spans) if not is_worker else None
        for span in spans:
            name = span[NAME]
            own = selfs[span[SID]] / 1e9
            self_by_name[name] += own
            if in_phase is None or span[SID] in in_phase:
                busy += own
                if name in RUNNERS:
                    unattributed += own
                elif name != WAIT:
                    layer_self[name.split(".", 1)[0]] += own
            calls[name] += 1
            if is_worker:
                worker_inclusive[name] += (span[END] - span[START]) / 1e9
            if name == REQUEST:
                stub_durations.append((span[END] - span[START]) / 1e3)
        for name, value in process_counts.items():
            if name == "netsim.sched.peak_active":
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value

    def self_s(*names):
        return sum(self_by_name[name] for name in names)

    stub_queries = calls[REQUEST]
    if len(stub_durations) >= 2:
        deciles = statistics.quantiles(stub_durations, n=10)
        p50, p90 = statistics.median(stub_durations), deciles[8]
    else:
        p50 = p90 = stub_durations[0] if stub_durations else 0.0
    sched_self = self_s("netsim.sched.run")
    cell_s = worker_inclusive["core.fleet.cell"]
    metrics = {
        "workloads.registry_filler_s": self_s("workloads.registry_filler"),
        "servers.dlv_registry_build_s": self_s("servers.dlv_registry_build"),
        "workloads.universe_build_s": self_s("workloads.universe_build"),
        "crypto.keygen_calls": calls["crypto.keygen"],
        "zones.sign_calls": calls["zones.sign"],
        "zones.sign_s": self_s("zones.sign"),
        "resolver.stub_queries": stub_queries,
        "resolver.stub_query_us_p50": p50,
        "resolver.stub_query_us_p90": p90,
        "resolver.resolve_self_s": self_s("resolver.resolve"),
        "resolver.cache_get_calls": calls["resolver.cache_get"],
        "resolver.cache_hit_ratio": _ratio(
            counts["resolver.cache_get_hits"], calls["resolver.cache_get"]
        ),
        "resolver.validate_s": self_s("resolver.validate"),
        "zones.verify_calls": calls["zones.verify"],
        "crypto.verify_memo_hit_ratio": _memo_hit_ratio(
            [process[2] for process in processes]
        ),
        "resolver.lookaside_s": self_s("resolver.lookaside"),
        "resolver.lookaside_calls": calls["resolver.lookaside"],
        "resolver.upstream_sends": calls["resolver.send_query"],
        "resolver.sends_per_stub_query": _ratio(
            calls["resolver.send_query"], stub_queries
        ),
        "resolver.retries": counts["resolver.retries"],
        "resolver.stale_served": counts["resolver.stale_served"],
        "servers.handle_s": self_s("servers.handle"),
        "dnscore.encode_s": self_s("dnscore.encode"),
        "dnscore.decode_s": self_s("dnscore.decode"),
        "dnscore.codec_calls": calls["dnscore.encode"] + calls["dnscore.decode"],
        "dnscore.wire_size_s": self_s("dnscore.wire_size"),
        "netsim.network_query_s": self_s("netsim.network_query"),
        "netsim.sched.resumes": counts["netsim.sched.resumes"],
        "netsim.sched.timers": counts["netsim.sched.timers"],
        "netsim.sched.threads_created": counts["netsim.sched.threads_created"],
        "netsim.sched.peak_active": counts["netsim.sched.peak_active"],
        "netsim.sched.self_s": sched_self,
        "netsim.sched.us_per_resume": _ratio(
            sched_self * 1e6, counts["netsim.sched.resumes"]
        ),
        "core.metrics_inc_per_query": _ratio(
            counts["core.metrics_inc"], stub_queries
        ),
        "core.window_merge_s": self_s("core.window_merge"),
        "core.store.commits": calls["core.store.commit"],
        "core.store.commit_s": self_s("core.store.commit"),
        "core.distrib.claims": calls["core.distrib.claim"],
        "core.distrib.lease_s": self_s(
            "core.distrib.claim", "core.distrib.renew", "core.distrib.release"
        ),
        "core.fleet.shard_setup_s": (
            worker_inclusive["workloads.universe_build"]
            + worker_inclusive["workloads.registry_filler"]
        ),
        "core.fleet.cell_s": cell_s,
        "core.fleet.busy_ratio": _ratio(cell_s, workers * phase_s),
        "phase_s": phase_s,
        "unattributed_s": unattributed,
        "trace.attributed_ratio": 1.0 - _ratio(unattributed, busy),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
