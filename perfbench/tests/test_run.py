"""run.py's gates: schema, pinned digests, failure accounting, RSS."""

import copy
import json
import multiprocessing

import pytest

import rep
import run
import spec

BENCHMARK = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def test_committed_schema_passes():
    run.check_schema(BENCHMARK)


@pytest.mark.parametrize("breakage", [
    lambda b: b["end_to_end"][0].update(name="setup s"),
    lambda b: b["end_to_end"][0].pop("bound"),
    lambda b: b["end_to_end"][1].update(better="up"),
    lambda b: b["per_layer"][0].update(unit="per second"),
    lambda b: b["per_layer"].append(dict(b["per_layer"][0])),
    lambda b: b["workloads"].pop(),
    lambda b: b["workloads"][0].update(why="two\nlines"),
])
def test_schema_rejects(breakage):
    broken = copy.deepcopy(BENCHMARK)
    breakage(broken)
    with pytest.raises(run.BenchError):
        run.check_schema(broken)


def _rep(completed, digest="d", attempted=100, **extra):
    return dict(setup_s=1.0, phase_s=2.0, peak_rss_mb=50.0,
                attempted=attempted, completed=completed, digest=digest, **extra)


def test_every_workload_reports_the_same_end_to_end_names():
    for workload in spec.WORKLOADS:
        result = run.summarize(workload, [_rep(100)], "d", False, BENCHMARK)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END


def test_a_metric_the_benchmark_does_not_declare_stops_the_run():
    trimmed = copy.deepcopy(BENCHMARK)
    trimmed["end_to_end"].pop()
    with pytest.raises(run.BenchError):
        run.summarize("sweep-fleet", [_rep(100)], "d", False, trimmed)


@pytest.mark.parametrize("trace", [False, True])
def test_raised_query_counts_as_failed_against_attempted(trace):
    # The second repetition raised: every query it planned is failed.
    planned = spec.planned_queries("replay-warm")
    result = run.summarize("replay-warm", [_rep(100), None], "d", trace, BENCHMARK)
    assert result["attempted"] == 100 + planned
    assert result["failed"] == planned
    assert not result["correct"]


def test_shed_queries_count_as_failed():
    from repro.core import ReplayLoad, run_chaos_replay, standard_universe, standard_workload

    import cells

    workload = standard_workload(10, seed=2016)
    universe = standard_universe(workload, filler_count=50, seed=2016)
    load = ReplayLoad(users=8, per_user_qps=0.5, queries=200, max_concurrent=1,
                      max_queue=0, seed=2016)
    replay = run_chaos_replay(universe, names=[s.name for s in workload.domains],
                              load=load)
    digest, completed = cells.settle_replay(replay)
    assert replay.overall.admission_rejected > 0
    result = run.summarize("replay-warm", [_rep(completed, attempted=200)], "d", False,
                           BENCHMARK)
    assert result["attempted"] == 200
    assert result["failed"] == replay.overall.admission_rejected


def test_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    monkeypatch.setattr(run, "MIN_REPS", 1)
    argv = ["--workload", "replay-warm", "--seed", "3", "--seconds", "0"]
    assert run.main(argv) == 0
    good = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert good["correct"] and good["failed"] == 0

    seed = str(spec.input_seed(3))
    pins["replay-warm"][seed] = "0" * 64
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins), encoding="utf-8")
    monkeypatch.setattr(run, "PINS", tampered)
    assert run.main(argv) == 1
    bad = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert bad["correct"] is False


def _allocate(megabytes):
    block = bytearray(megabytes * 1024 * 1024)
    block[::4096] = b"x" * len(block[::4096])


def test_peak_rss_includes_forked_workers():
    before = rep.peak_rss_mb()
    child = multiprocessing.get_context("fork").Process(target=_allocate, args=(256,))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert rep.peak_rss_mb() >= max(before, 256)


@pytest.mark.parametrize("workload", ["replay-warm", "sweep-fleet"])
def test_traced_run_matches_the_pin_and_covers_the_phase(workload, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["trace.attributed_ratio"] >= 0.9
    assert metrics["resolver.stub_queries"] >= spec.planned_queries(workload)
    if workload == "sweep-fleet":
        # Only the forked workers run cells: their spans were flushed.
        shards = spec.WORKLOADS[workload]["shards"]
        assert metrics["core.store.commits"] == shards
        assert metrics["core.distrib.claims"] >= shards
        assert metrics["core.fleet.cell_s"] > 0
