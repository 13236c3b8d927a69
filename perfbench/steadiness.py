"""Steadiness report: two sets of runs of the same code, side by side.

    python3 perfbench/steadiness.py

Runs ``run.py --trace 0`` for ``run_seconds`` (``BENCHMARK.json``) once
per seed 0..9 on every workload, then does it all again, and writes to
``STEADINESS.md`` and prints, for each end-to-end metric and workload,
each set's median and quartiles, the spread (quartile distance over the
median) and the relative gap between the two medians, signed so that
positive means the second set reads worse.  A run that fails or is
incorrect stops the report.  The bounds in ``BENCHMARK.json`` are set
from this output.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec
from run import commit_sha, load_benchmark

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: float) -> dict:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {process.returncode}\n{process.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"]

    values = {}  # (set, workload, metric) -> [value per seed]
    for run_set in ("A", "B"):
        for workload in spec.WORKLOADS:
            for seed in range(RUNS):
                metrics = one_run(workload, seed, seconds)
                for name, value in metrics.items():
                    values.setdefault((run_set, workload, name), []).append(value)
                print(f"set {run_set} {workload} seed {seed}: {metrics}",
                      file=sys.stderr, flush=True)

    lines = [
        "# Steadiness report",
        "",
        f"`python3 perfbench/steadiness.py`: {RUNS} runs of {seconds} s per set and workload,",
        f"on {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"commit {commit_sha()}.",
        f"Two sets of runs of the same code; seeds 0..{RUNS - 1} in each set.",
        "spread = (Q3 - Q1) / median; gap = second median vs first,",
        "positive when the second set reads worse; ok = |gap| within the",
        "bound and, except for setup_s, both spreads within it.",
        "",
        "| workload | metric | bound | A median | A Q1..Q3 | A spread | "
        "B median | B Q1..Q3 | B spread | gap | ok |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for workload in spec.WORKLOADS:
        for metric in benchmark["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            a = describe(values[("A", workload, name)])
            b = describe(values[("B", workload, name)])
            gap = (b[0] - a[0]) / a[0]
            if metric["better"] == "higher":
                gap = -gap
            bound = metric["bound"]
            spreads = () if name == "setup_s" else (a[3], b[3])
            ok = max((abs(gap), *spreads)) <= bound
            lines.append(
                f"| {workload} | {name} ({unit}) | {bound:g} | "
                f"{a[0]:.4g} | {a[1]:.4g}..{a[2]:.4g} | {a[3]:.3f} | "
                f"{b[0]:.4g} | {b[1]:.4g}..{b[2]:.4g} | {b[3]:.3f} | {gap:+.3f} | {'yes' if ok else 'NO'} |"
            )
    lines += ["", "Raw values per seed:", "", "```"]
    for (run_set, workload, name), series in sorted(values.items()):
        lines.append(f"{run_set} {workload} {name}: "
                     + " ".join(f"{value:.6g}" for value in series))
    lines.append("```")
    report = "\n".join(lines) + "\n"
    print(report)
    (HERE / "STEADINESS.md").write_text(report, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
