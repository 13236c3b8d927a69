"""The workloads as set-up and timed-phase pairs over ``repro``.

``prepare(workload, seed, workdir)`` does the set-up (everything up to
the first stub query) and returns a :class:`Cell`; ``cell.phase()`` is
the timed phase, and ``cell.settle(result)`` turns its result into the
simulated digest and the completed-query count.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Tuple

import repro.core.store as store_module
from repro.core import (
    DistributedExecutor,
    ReplayLoad,
    ResultStore,
    chaos_replay_fingerprint,
    result_fingerprint,
    run_chaos_replay,
    standard_universe,
    standard_universe_factory,
    standard_workload,
)
from repro.resolver import correct_bind_config

from spec import WORKLOADS


@dataclasses.dataclass
class Cell:
    phase: Callable[[], Any]
    #: Stub queries the phase attempts.
    attempted: int
    #: result -> (digest, stub queries completed)
    settle: Callable[[Any], Tuple[str, int]]


def result_digest(result) -> str:
    """SHA-256 over ``result_fingerprint`` in canonical JSON."""
    blob = json.dumps(
        result_fingerprint(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _settle_experiment(result) -> Tuple[str, int]:
    return result_digest(result), sum(result.rcode_counts.values())


def replay_load(params, seed) -> ReplayLoad:
    return ReplayLoad(
        users=params["users"],
        per_user_qps=params["per_user_qps"],
        queries=params["queries"],
        window_seconds=params["window_seconds"],
        max_concurrent=params["users"],
        seed=seed,
    )


def settle_replay(result) -> Tuple[str, int]:
    return chaos_replay_fingerprint(result), result.overall.sessions_completed


def _replay(params, seed, workdir):
    workload = standard_workload(params["domains"], seed=seed)
    universe = standard_universe(workload, filler_count=params["filler"], seed=seed)
    names = [spec.name for spec in workload.domains]
    config = correct_bind_config()
    load = replay_load(params, seed)

    def phase():
        return run_chaos_replay(universe, config, names, load=load)

    return Cell(phase, load.query_budget(), settle_replay)


def fleet_inputs(params, seed):
    names = standard_workload(params["domains"], seed=seed).names(params["domains"])
    factory = standard_universe_factory(
        params["domains"], filler_count=params["filler"], workload_seed=seed
    )
    return names, factory


def _fleet(params, seed, workdir):
    names, factory = fleet_inputs(params, seed)
    store = ResultStore(Path(workdir) / "store")
    executor = DistributedExecutor(
        workers=params["workers"], root=str(Path(workdir) / "board")
    )

    def phase():
        return store_module.run_stored_sweep(
            factory,
            correct_bind_config(),
            names,
            seed=seed,
            shards=params["shards"],
            executor=executor,
            store=store,
        )

    return Cell(phase, len(names), lambda outcome: _settle_experiment(outcome.result))


_BUILDERS = {
    "replay-warm": _replay,
    "sweep-fleet": _fleet,
}


def prepare(workload: str, seed: int, workdir) -> Cell:
    return _BUILDERS[workload](WORKLOADS[workload], seed, workdir)
