"""What the benchmark runs: workload sizes, layers and the seed map.

Pure data, importable without the ``repro`` package, so ``run.py``,
the steadiness report and the tests share one definition.  Metric
names, units and directions are declared once, in ``BENCHMARK.json``.
"""

import re

#: ``run.py --seed n`` selects input seed ``BASE_SEED + n % PIN_SEEDS``.
#: Every input seed has a pinned digest per workload in ``pins.json``,
#: so every run, whatever its seed, is checked against a known answer.
BASE_SEED = 2016
PIN_SEEDS = 16


def input_seed(seed: int) -> int:
    return BASE_SEED + seed % PIN_SEEDS


#: Workload sizes.  Why each workload was chosen, the layers it
#: stresses and the layers it bypasses are in ``README.md``.
WORKLOADS = {
    "replay-warm": {
        "domains": 60,
        "filler": 400,
        "users": 16,
        "per_user_qps": 0.05,
        "queries": 8000,
        "window_seconds": 600.0,
    },
    "sweep-fleet": {
        "domains": 1000,
        "filler": 10_000,
        "shards": 4,
        "workers": 2,
    },
}


def planned_queries(workload: str) -> int:
    """Stub queries one repetition of *workload* attempts."""
    params = WORKLOADS[workload]
    return params.get("queries", params["domains"])


#: The package's layers, the first component of every span name.
LAYERS = ("workloads", "zones", "crypto", "servers", "dnscore", "resolver",
          "netsim", "core")

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DIRECTIONS = ("lower", "higher")
