"""Recompute the pinned digests in ``pins.json``.

    python3 perfbench/pin.py

For every input seed, runs every workload once and records its simulated
digest.  ``sweep-fleet`` is pinned by the serial shard plan
(``run_sharded_experiment`` with no executor), so the fleet's merged
result is checked against an independent execution path.  Pin again
only when a change is meant to alter simulated results.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"


def digests(workload: str) -> dict:
    """Digest per input seed, computed in this process."""
    import cells
    from repro.core import run_sharded_experiment
    from repro.resolver import correct_bind_config

    out = {}
    for offset in range(spec.PIN_SEEDS):
        seed = spec.BASE_SEED + offset
        if workload == "sweep-fleet":
            params = spec.WORKLOADS[workload]
            names, factory = cells.fleet_inputs(params, seed)
            result = run_sharded_experiment(
                factory, correct_bind_config(), names, seed=seed,
                shards=params["shards"],
            )
            out[str(seed)] = cells.result_digest(result)
        else:
            cell = cells.prepare(workload, seed, workdir=None)
            out[str(seed)] = cell.settle(cell.phase())[0]
        print(f"{workload} {seed} {out[str(seed)]}", file=sys.stderr)
    return out


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--one":
        print(json.dumps(digests(argv[1])))
        return 0
    if argv:
        raise SystemExit("usage: python3 perfbench/pin.py")
    pins = {}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Two workloads at a time: the host has two CPUs.
    pending = list(spec.WORKLOADS)
    while pending:
        batch, pending = pending[:2], pending[2:]
        procs = [
            (name, subprocess.Popen(
                [sys.executable, __file__, "--one", name],
                stdout=subprocess.PIPE, text=True,
                env=env,
            ))
            for name in batch
        ]
        for name, proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                print(f"pinning {name} failed", file=sys.stderr)
                return 1
            pins[name] = json.loads(out.strip().splitlines()[-1])
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
