"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py <workload> <seed> <trace 0|1> <workdir>

Prints one JSON object: import, set-up and phase seconds, peak RSS, attempted
and completed stub queries, the simulated digest and, when traced, the
per-layer ledger.  ``run.py`` starts one of these per repetition, so
every repetition starts with cold hot-path memos and its own RSS peak.
It runs on every CPU the host gives it, as the package's users run it,
so scheduler handoffs pay the cost of waking a thread on another CPU.
"""

import json
import resource
import sys
import time
from pathlib import Path

from spec import WORKLOADS


def peak_rss_mb() -> float:
    """High-water RSS of this process or of any child it has waited for
    (the fleet's forked workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv) -> int:
    workload, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    # Importing the package is a per-process cost, reported apart from
    # set-up: it reads and compiles files, so it is the noisiest part.
    started = time.perf_counter()
    import cells

    import_s = time.perf_counter() - started
    recorder = None
    if trace:
        import ledger

        recorder = ledger.Recorder(spill_dir=workdir / "spans")
        ledger.install(recorder)
    started = time.perf_counter()
    cell = cells.prepare(workload, seed, workdir)
    setup_s = time.perf_counter() - started
    started = time.perf_counter()
    if recorder is not None:
        result = recorder.call(ledger.PHASE, cell.phase)
    else:
        result = cell.phase()
    phase_s = time.perf_counter() - started
    rss = peak_rss_mb()
    digest, completed = cell.settle(result)
    report = {
        "workload": workload,
        "seed": seed,
        "import_s": import_s,
        "setup_s": setup_s,
        "phase_s": phase_s,
        "peak_rss_mb": rss,
        "attempted": cell.attempted,
        "completed": completed,
        "digest": digest,
    }
    if recorder is not None:
        from repro import perf

        recorder.harvest_resolvers()
        processes = [
            (recorder.spans(), recorder.counts, perf.hotpath_cache_stats(), False)
        ] + [
            (spans, counts, hotpath, True)
            for spans, counts, hotpath in ledger.load_spills(workdir / "spans")
        ]
        workers = WORKLOADS[workload].get("workers", 2)
        report["ledger"] = ledger.ledger_metrics(processes, phase_s, workers)
        report["ledger"]["import_s"] = import_s
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
