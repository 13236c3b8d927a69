"""Self time and the recorder, on span trees with known answers."""

import threading
import time

import pytest

import ledger
import spec
from ledger import PHASE, REQUEST, WAIT


def span(sid, parent, name, start, end, tid):
    return (sid, parent, name, start, end, tid, None)


# A replay in miniature.  Thread 1 runs the event loop; thread 2 runs one
# session whose stub query suspends once.  Times in ns.
#
#   t1  phase [0,110)  > sched.run [0,100)  > event [75,80)
#   t2  session [10,70) (parent: sched.run) > stub [12,68)
#                                              > wait [20,50), resolve [52,60)
TREE = [
    span(0, None, PHASE, 0, 110, 1),
    span(1, 0, "netsim.sched.run", 0, 100, 1),
    span(6, 1, "core.replay.event", 75, 80, 1),
    span(2, 1, "core.replay.session", 10, 70, 2),
    span(3, 2, REQUEST, 12, 68, 2),
    span(4, 3, WAIT, 20, 50, 2),
    span(5, 3, "resolver.resolve", 52, 60, 2),
]


def test_self_time_across_two_threads():
    selfs = ledger.self_times(TREE)
    # Busy(session) = [10,20)+[50,70) = 30; busy(stub) = [12,20)+[50,68) = 26.
    assert selfs == {0: 10, 1: 65, 6: 5, 2: 4, 3: 18, 4: 0, 5: 8}
    assert sum(selfs.values()) == 110


def test_parent_outside_the_process_makes_a_root():
    spans = [span(1, 99, "core.fleet.cell", 0, 10, 1),
             span(2, 1, "workloads.universe_build", 2, 6, 1)]
    assert ledger.self_times(spans) == {1: 6, 2: 4}


def test_overlapping_children_are_counted_once():
    spans = [span(1, None, "netsim.sched.run", 0, 100, 1),
             span(2, 1, "core.replay.session", 10, 40, 2),
             span(3, 1, "core.replay.session", 30, 60, 3)]
    assert ledger.self_times(spans)[1] == 50


def test_ledger_metrics_on_the_tree():
    metrics = ledger.ledger_metrics([(TREE, {"netsim.sched.resumes": 1}, {}, False)],
                                    phase_s=110e-9)
    # Runner self time is unattributed: phase 10, session 4, event 5.
    assert metrics["unattributed_s"] == pytest.approx(19e-9)
    assert metrics["netsim.sched.self_s"] == pytest.approx(65e-9)
    assert metrics["netsim.sched.us_per_resume"] == pytest.approx(65e-3)
    assert metrics["resolver.stub_queries"] == 1
    assert metrics["resolver.self_s"] == pytest.approx(26e-9)
    assert metrics["core.self_s"] == 0
    assert metrics["trace.attributed_ratio"] == pytest.approx(1 - 19 / 110)
    layers = sum(metrics[f"{layer}.self_s"] for layer in spec.LAYERS)
    assert layers + metrics["unattributed_s"] == pytest.approx(110e-9)


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("wrapped_share, low, high", [(1.0, 0.9, 1.0), (0.5, 0.3, 0.7)])
def test_an_unwrapped_callee_lowers_the_attributed_ratio(wrapped_share, low, high):
    recorder = ledger.Recorder()

    def experiment():
        recorder.call("resolver.resolve", _spin, (0.04 * wrapped_share,))
        _spin(0.04 * (1 - wrapped_share))

    recorder.call(PHASE, lambda: recorder.call("core.experiment", experiment))
    metrics = ledger.ledger_metrics([(recorder.spans(), {}, {}, False)], phase_s=0.04)
    assert low <= metrics["trace.attributed_ratio"] <= high
    assert metrics["core.self_s"] == 0


def test_sleeps_and_suspensions_are_not_busy_time():
    # A fleet parent: the executor polls its workers, sleeping between
    # scans; the worker's cell is all layer time.
    parent = [span(1, None, PHASE, 0, 100, 1),
              span(2, 1, "core.distrib.executor", 0, 100, 1),
              span(3, 2, WAIT, 10, 90, 1)]
    worker = [span(1, None, "core.fleet.cell", 0, 80, 1),
              span(2, 1, "workloads.universe_build", 0, 80, 1)]
    metrics = ledger.ledger_metrics(
        [(parent, {}, {}, False), (worker, {}, {}, True)], phase_s=100e-9
    )
    assert metrics["core.self_s"] == pytest.approx(20e-9)
    assert metrics["unattributed_s"] == 0
    assert metrics["trace.attributed_ratio"] == 1.0


def test_layer_totals_leave_out_spans_outside_the_phase():
    setup = span(9, None, "workloads.universe_build", 200, 260, 1)
    metrics = ledger.ledger_metrics([(TREE + [setup], {}, {}, False)], phase_s=110e-9)
    assert metrics["workloads.universe_build_s"] == pytest.approx(60e-9)
    assert metrics["workloads.self_s"] == 0


def test_recorder_nests_spans_per_thread_and_tags_requests():
    recorder = ledger.Recorder()

    def request():
        return recorder.call("resolver.resolve", lambda: 7)

    def session():
        recorder.call(REQUEST, request)

    worker = threading.Thread(target=lambda: recorder.call("core.replay.session", session))
    recorder.call(PHASE, lambda: (worker.start(), worker.join(timeout=10)))
    assert not worker.is_alive()
    by_name = {s[ledger.NAME]: s for s in recorder.spans()}
    assert by_name["resolver.resolve"][ledger.PARENT] == by_name[REQUEST][ledger.SID]
    assert by_name["resolver.resolve"][ledger.REQ] == by_name[REQUEST][ledger.SID]
    assert by_name["core.replay.session"][ledger.PARENT] is None
    assert by_name["core.replay.session"][ledger.TID] != by_name[PHASE][ledger.TID]
