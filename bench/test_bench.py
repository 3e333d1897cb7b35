"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Every workload runs a few items, the generator repeats per seed, the metric
names printed match BENCHMARK.json, and a corrupted output is counted as a
failure.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _take(stream, n):
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = _take(gen.STREAMS[name](7), 3)
    assert first == _take(gen.STREAMS[name](7), 3)
    assert gen.warmup_items(name, 7) == gen.warmup_items(name, 7)
    if name != "search":  # the search pool is fixed; the seed sets its order
        assert first != _take(gen.STREAMS[name](8), 3)


def test_search_seed_orders_the_pool():
    pool = gen.search_pool()
    rounds = _take(gen.STREAMS["search"](7), 4 * len(pool))
    for start in range(0, len(rounds), len(pool)):
        assert sorted(rounds[start : start + len(pool)]) == sorted(pool)
    assert rounds != _take(gen.STREAMS["search"](8), 4 * len(pool))


def test_generated_inputs_satisfy_their_preconditions():
    for a, b, c, band in _take(gen.symbol_items(3), 6):
        assert all(gen.legendre(x, y) == 1
                   for x, y in ((a, b), (a, c), (b, c)))
        lo, hi = gen.GRID_BAND if band == "grid" else gen.DESCENT_BAND
        assert all(lo <= p < hi and p % 4 == 1 and gen.is_prime(p)
                   for p in (a, b, c))
    for kind, entries, extra in _take(gen.certify_items(3), 14):
        if kind == "maximal":
            assert all(gen.legendre(p, q) == 1
                       for i, ps in enumerate(extra) for qs in extra[i + 1:]
                       for p in ps for q in qs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_workload_runs_one_block(name, traced):
    wl = workloads.WORKLOADS[name]
    wl.warmup(gen.warmup_items(name, 5))
    r = run.Run(workloads, gen, name, seed=5)
    tr = workloads.Tracer(traced)
    r.for_seconds(0.001, tr)
    assert r.attempted == gen.BLOCK_SIZES[name]
    assert r.failed == 0
    assert len(r.latencies) == r.attempted
    if traced:
        assert any(s.name != "item" for s in tr.spans)


def test_corrupted_output_counts_as_failure(monkeypatch):
    wl = workloads.WORKLOADS["additive"]
    honest = wl.run

    def corrupted(item, tr):
        out, system = honest(item, tr)
        return dict(out, valid=not out["valid"]), system

    monkeypatch.setitem(workloads.WORKLOADS, "additive",
                        dataclasses.replace(wl, run=corrupted))
    r = run.Run(workloads, gen, "additive", seed=5)
    for _ in range(3):
        r.one(workloads.Tracer(False))
    assert r.attempted == 3 and r.failed == 3


def test_golden_mismatch_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "redei_symbol", lambda a, b, c: 2)
    r = run.Run(workloads, gen, "symbols", seed=run.DEFAULT_SEED)
    r.one(workloads.Tracer(False))
    assert r.golden and r.failed == 1


def _last_json(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _last_json("--workload", "additive", "--seed", "2",
                        "--seconds", "0.2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "symbols", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
