"""Benchmark entry point for the DLV look-aside simulator.

    python3 perfbench/run.py --workload replay-warm --seed 0 --seconds 40 --trace 0

Runs repetitions of one workload, each in a fresh process
(``rep.py``), until ``--seconds`` have passed (at least three).  Every
repetition's simulated digest must equal the one pinned in ``pins.json``
for the input seed, traced or not.  The last line of standard output is
the result; the line before it records provenance and every repetition.

``--trace 0`` reports the end-to-end metrics as medians over the run's
repetitions: set-up seconds, queries per second of the timed phase (one
ratio over each whole phase) and peak RSS.  ``--trace 1`` runs one untraced and one traced
repetition and reports the traced one's per-layer ledger.

Exit codes: 0 when every digest matches, 1 when one does not (the result
is still printed), 2 when the benchmark cannot run (no result).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"
MIN_REPS = 3
#: Stop starting repetitions once a run has taken this long, and kill a
#: repetition that would end past RUN_DEADLINE_S, so a run ends inside
#: 180 seconds even on a slow host.
RUN_LIMIT_S = 120.0
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad schema)."""


def check_schema(benchmark: dict) -> None:
    """``BENCHMARK.json`` is well formed: it names the workloads of
    ``spec.py``, every name and unit matches its pattern and is used
    once, and every end-to-end metric has a unit, a direction and a
    bound."""
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(benchmark) != expected:
        raise BenchError(f"BENCHMARK.json keys {sorted(benchmark)}")
    names = [w["name"] for w in benchmark["workloads"]]
    if sorted(names) != sorted(spec.WORKLOADS):
        raise BenchError(f"workloads {names} != {sorted(spec.WORKLOADS)}")
    for workload in benchmark["workloads"]:
        if set(workload) != {"name", "why"} or "\n" in workload["why"] \
                or len(workload["why"]) > 200:
            raise BenchError(f"bad workload entry {workload}")
    seen = set(names)
    for key, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                      ("per_layer", {"name", "unit", "better"})):
        for entry in benchmark[key]:
            name = entry.get("name", "")
            if set(entry) != keys:
                raise BenchError(f"{key} entry {name} has keys {sorted(entry)}")
            if not spec.NAME_RE.fullmatch(name) or name in seen:
                raise BenchError(f"bad or repeated metric name {name!r}")
            seen.add(name)
            if not spec.UNIT_RE.fullmatch(entry["unit"]):
                raise BenchError(f"bad unit for {name}")
            if entry["better"] not in spec.DIRECTIONS:
                raise BenchError(f"bad direction for {name}")
            if "bound" in keys and not 0 < entry["bound"] <= 0.25:
                raise BenchError(f"bad bound for {name}")
    for name in names:
        if not spec.NAME_RE.fullmatch(name):
            raise BenchError(f"bad workload name {name!r}")


def load_benchmark() -> dict:
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    check_schema(benchmark)
    return benchmark


def commit_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "input_seed": spec.input_seed(seed),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_sha(),
    }


def run_rep(workload: str, seed: int, trace: bool, workdir: Path, timeout: float):
    """One repetition in a fresh process; its report, or None if it failed."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
               "1" if trace else "0", str(workdir)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        out, err = process.communicate()
        err += f"\nrepetition killed after {timeout:.0f} s"
    except BaseException:
        # Interrupted: stop the repetition and its workers first.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode != 0:
        sys.stderr.write(err[-4000:])
        return None
    return json.loads(out.strip().splitlines()[-1])


def summarize(workload: str, reps, pin, trace: bool, benchmark: dict) -> dict:
    """The result line over a run's repetitions, reporting exactly the
    metrics ``benchmark`` declares for the kind of run.

    A repetition that crashed counts every query it planned as failed; a
    repetition whose digest differs from ``pin`` makes the run incorrect.
    """
    planned = spec.planned_queries(workload)
    done = [rep for rep in reps if rep is not None]
    attempted = sum(rep["attempted"] for rep in done) + planned * (len(reps) - len(done))
    failed = attempted - sum(rep["completed"] for rep in done)
    correct = bool(reps) and len(done) == len(reps) and pin is not None \
        and all(rep["digest"] == pin for rep in done)
    untraced = [rep for rep in done if "ledger" not in rep]
    traced = [rep for rep in done if "ledger" in rep]

    def queries_per_s(group):
        """Median over repetitions of completed queries / phase seconds."""
        rates = [rep["completed"] / rep["phase_s"] for rep in group if rep["phase_s"]]
        return statistics.median(rates) if rates else 0.0

    if trace:
        metrics = dict(traced[0]["ledger"]) if traced else {}
        untraced_qps = queries_per_s(untraced)
        metrics["trace.overhead_ratio"] = (
            queries_per_s(traced) / untraced_qps if untraced_qps else 0.0
        )
        metrics["failed_frac"] = failed / attempted if attempted else 0.0
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in done) if done else 0.0,
            "queries_per_s": queries_per_s(done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done) if done else 0.0,
        }
    declared = {
        entry["name"]: entry["unit"]
        for entry in benchmark["per_layer" if trace else "end_to_end"]
    }
    if (traced if trace else done) and set(metrics) != set(declared):
        raise BenchError(
            f"reported metrics differ from the declared set: "
            f"{sorted(set(metrics) ^ set(declared))}"
        )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in declared.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        benchmark = load_benchmark()
        pins = json.loads(PINS.read_text(encoding="utf-8"))
    except (BenchError, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    seed = spec.input_seed(args.seed)
    pin = pins.get(args.workload, {}).get(str(seed))
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    started = time.perf_counter()
    reps = []
    try:
        for index in range(2 if args.trace else 10_000):
            rep_started = time.perf_counter()
            traced = bool(args.trace) and index == 1
            timeout = max(1.0, RUN_DEADLINE_S - (rep_started - started))
            reps.append(run_rep(args.workload, seed, traced, scratch / str(index), timeout))
            if reps[-1] is None:
                break
            if args.trace:
                continue
            now = time.perf_counter()
            elapsed, last = now - started, now - rep_started
            if elapsed + last > RUN_LIMIT_S:
                break
            if len(reps) >= MIN_REPS and elapsed + last > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    try:
        result = summarize(args.workload, reps, pin, bool(args.trace), benchmark)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if pin is None:
        print(f"perfbench: no pinned digest for {args.workload} seed {seed}",
              file=sys.stderr)
    for rep in reps:
        if rep is not None and rep["digest"] != pin:
            print(f"perfbench: {args.workload} seed {seed} digest "
                  f"{rep['digest']} != pinned {pin}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args.seed), "reps": [
        None if rep is None else {k: v for k, v in rep.items() if k != "ledger"}
        for rep in reps
    ]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
