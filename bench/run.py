#!/usr/bin/env python3
"""Benchmark for narrow2: one seeded workload per run.

    python3 bench/run.py --workload symbols --seed 0 --seconds 30 --trace 0

Workloads (inputs come from bench/gen.py, never from narrow2):
  symbols   redei_symbol on fresh consistent prime triples, two grid-band
            triples (primes 1e3..1e6) per descent-band triple (~1e7).
  certify   is_maximal(parse_acceptable(v)) on consistent n = 3 vectors of
            primes 1e3..1e4 with profiles (1,1,1), (1,2,2), (2,2,2), and
            ray_class_report on n = 2 vectors for two items in seven.
  additive  from_json -> validate -> verify_shrinking on bilinear documents
            with d in {2, 3, 4}; one document in five has a flipped value.
  search    a space growth (three primes below 1e3, then two
            extend_space(..., 3, 10**7) steps) plus one
            find_ray_class_vector(c, (1, 1), 10**6) per item, over a fixed
            pool of three in seeded order.  Its run-to-run spread on a
            shared 2-core machine (~0.3 of the median) is wider than any
            bound, so BENCHMARK.json leaves it out; traced runs of every
            workload still time one search item for the search.* metrics.

The load is a closed loop: one caller, one process, one thread, with
worker_count=1 and BLAS/OpenMP pinned to one thread.  Items run until their
summed time reaches --seconds and the last block of the workload's item mix
is complete; caches persist within a run as they would for a library user,
and each run is a fresh interpreter.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters of `import narrow2` plus the warm-up items), peak_rss_mb,
items_per_s (median over blocks of the workload's item mix), item_p50_ms
and item_tail_ms (a fixed percentile per workload).  --trace 1 first runs
half the time untraced in a fresh interpreter, then the same items traced,
then traced items of the other workloads until every pipeline ran once, and
prints the per-layer metrics derived from the spans; trace.overhead_ms is
the traced minus the untraced item median.  The spans are written to
bench/out/ when the run ends.

Every output is checked outside the timed region: against bench/golden/
where an input has a recorded output, by invariants otherwise.  The last
line of standard output is one JSON object with correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
# The tail percentile of each workload, fixed so that runs compare: each is
# the highest of p99, p95, p90, p75 with at least ten items beyond it in a
# 30-second run of the program the goldens were recorded from.
TAIL_PERCENTILE = {"symbols": 95, "certify": 75, "search": 75,
                   "additive": 90}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def setup_samples(workload: str, seed: int) -> list[dict]:
    probe = str(BENCH / "setup_probe.py")
    return [json.loads(run_child([probe, workload, str(seed)])
                       .stdout.splitlines()[-1])
            for _ in range(SETUP_SAMPLES)]


def import_split(seed: int) -> dict:
    """import.* layer metrics from `-X importtime` in a fresh interpreter."""
    proc = run_child(["-X", "importtime", str(BENCH / "setup_probe.py"),
                      "symbols", str(seed), "--layers"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("narrow2", "numpy"):
            cumulative[parts[2].strip()] = int(parts[1]) / 1e3
    probe = json.loads(proc.stdout.splitlines()[-1])
    return {
        "import.narrow2_ms": (cumulative["narrow2"], "ms"),
        "import.numpy_ms": (cumulative["numpy"], "ms"),
        "import.sympy_descent_ms": (
            (probe["descent_first_s"] - probe["descent_again_s"]) * 1e3, "ms"),
    }


def tail(latencies: list[float], p: float) -> tuple[float, int]:
    """The p-th percentile by nearest rank, and the samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-int(p * len(ordered)) // 100))
    return ordered[rank - 1], len(ordered) - rank


def block_rate(elapsed: list[float], block: int) -> float:
    """Items per second, the median over complete blocks of the workload's
    item mix, so that neither the share of cold items nor one slow stretch
    of the machine sets it."""
    return statistics.median(block / sum(elapsed[i : i + block])
                             for i in range(0, len(elapsed), block))


class Run:
    """Items of one workload stream with their latencies and checks."""

    def __init__(self, workloads, gen, name: str, seed: int):
        self.wl = workloads.WORKLOADS[name]
        self.jsonable = workloads.jsonable
        self.stream = gen.STREAMS[name](seed)
        self.block = gen.BLOCK_SIZES[name]
        self.golden = load_golden(name)
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []  # items that returned
        self.elapsed: list[float] = []    # every item attempted

    def one(self, tr) -> str:
        item = next(self.stream)
        index = self.index
        self.index += 1
        if tr.on:
            tr.begin_item(f"{self.wl.name}:{index}")
        start = time.perf_counter()
        try:
            out, keep = self.wl.run(item, tr)
            error = None
        except Exception:  # counted in fail_ratio, traceback kept
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tr.on:
            elapsed = tr.item_core_seconds()
            tr.end_item()
        self.attempted += 1
        self.elapsed.append(elapsed)
        if error is None:
            self.latencies.append(elapsed)
            try:
                ok = self.correct(item, out, keep, index)
            except Exception:
                ok, error = False, traceback.format_exc()
        else:
            ok = False
        if not ok:
            self.failed += 1
            print(f"bench: {self.wl.name} item {index} failed: {item!r:.200}"
                  f"\n{error or 'wrong output'}", file=sys.stderr)
        return self.wl.kind(item)

    def correct(self, item, out, keep, index: int) -> bool:
        expected = self.golden.get(json.dumps(golden_key(self.wl.name, item)))
        if expected is not None:
            return expected == self.jsonable(out)
        return bool(self.wl.check(item, out, keep, index))

    def for_seconds(self, seconds: float, tr) -> None:
        """Items until their summed time reaches `seconds` and the last
        block is complete, so that every run has the same item mix."""
        while sum(self.elapsed) < seconds or self.attempted % self.block:
            self.one(tr)
            if self.attempted >= self.block and not self.latencies:
                break  # every item raises; stop rather than loop

    def until_covered(self, kinds: set, tr) -> None:
        seen: set = set()
        while not kinds <= seen:
            seen.add(self.one(tr))


def golden_key(name: str, item):
    """The input as stored next to its golden output (documents by hash)."""
    if name == "additive":
        d, sizes, flipped, doc = item
        return [d, list(sizes), flipped,
                hashlib.sha256(doc.encode()).hexdigest()]
    return json.loads(json.dumps(item))


def load_golden(name: str) -> dict:
    """Golden outputs by input, recorded by bench/record_golden.py."""
    path = BENCH / "golden" / f"{name}.json"
    rows = json.loads(path.read_text())["items"] if path.exists() else []
    return {json.dumps(key): out for key, out in rows}


# Workload-specific names for the shared item metrics, in the report only.
ALIAS_PREFIX = {"symbols": "symbol", "certify": "cert", "additive": "system"}


def end_to_end(workload: str, seed: int, seconds: float, workloads, gen):
    samples = setup_samples(workload, seed)
    setup = [s["import_s"] + s["warmup_s"] for s in samples]
    workloads.WORKLOADS[workload].warmup(gen.warmup_items(workload, seed))
    run = Run(workloads, gen, workload, seed)
    tr = workloads.Tracer(False)
    run.for_seconds(seconds, tr)
    lat = run.latencies
    p = TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(lat, p)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "items_per_s": (block_rate(run.elapsed, run.block), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
    }
    noun = workloads.WORKLOADS[workload].item_noun
    print(f"workload {workload}  seed {seed}  one item = one {noun}")
    print(f"  setup: median of {len(setup)} fresh interpreters; import "
          f"{statistics.median(s['import_s'] for s in samples):.4f} s, "
          f"warm-up {statistics.median(s['warmup_s'] for s in samples):.4f} s")
    print(f"  items: {run.attempted} attempted, {run.failed} failed, "
          f"fail_ratio {run.failed / run.attempted}")
    print(f"  item_tail_ms is p{p} of {len(lat)} samples, {beyond} beyond it; "
          f"items_per_s is the median over {run.attempted // run.block} "
          f"blocks of {run.block} items")
    if workload == "search":
        print(f"  search_s {sum(lat)!r} s")
    else:
        prefix = ALIAS_PREFIX[workload]
        print(f"  {prefix}s_per_s {metrics['items_per_s'][0]!r} 1/s")
        print(f"  {prefix}_p50_ms {metrics['item_p50_ms'][0]!r} ms")
        print(f"  {prefix}_tail_ms {metrics['item_tail_ms'][0]!r} ms")
    return run, metrics


# Per-layer metrics read off one span name each: (metric, span, scale, unit),
# the median span duration times scale.
LAYER_SPANS = (
    ("arith.solve_ternary.grid_ms", "arith.solve_ternary.grid", 1e3, "ms"),
    ("arith.solve_ternary.descent_ms", "arith.solve_ternary.descent", 1e3,
     "ms"),
    ("arith.sieve_s", "arith.sieve", 1, "s"),
    ("arith.factorize_us", "arith.factorize", 1e6, "us"),
    ("arith.legendre_us", "arith.legendre", 1e6, "us"),
    ("arith.fundamental_unit_ms", "arith.fundamental_unit", 1e3, "ms"),
    ("redei.context_ms", "redei.context", 1e3, "ms"),
    ("redei.summand_us", "redei.summand", 1e6, "us"),
    ("redei.symbol_warm_us", "redei.symbol_warm", 1e6, "us"),
    ("maximality.parse_ms", "maximality.parse", 1e3, "ms"),
    ("maximality.is_maximal_cold_ms", "maximality.is_maximal_cold", 1e3,
     "ms"),
    ("maximality.is_maximal_warm_ms", "maximality.is_maximal_warm", 1e3,
     "ms"),
    ("search.extend.coord1_s", "search.extend.coord1", 1, "s"),
    ("search.extend.coord2_s", "search.extend.coord2", 1, "s"),
    ("search.extend.coord3_s", "search.extend.coord3", 1, "s"),
    ("search.ray_s", "search.ray", 1, "s"),
    ("rayclass.unit_reduction_ms", "rayclass.unit_reduction", 1e3, "ms"),
    ("rayclass.report_ms", "rayclass.report", 1e3, "ms"),
    ("additive.from_json_ms", "additive.from_json", 1e3, "ms"),
    ("additive.closure_ms", "additive.closure", 1e3, "ms"),
    ("additive.validate_ms", "additive.validate", 1e3, "ms"),
    ("additive.shrink_ms", "additive.shrink", 1e3, "ms"),
)


def layer_metrics(spans, degenerate: int) -> dict:
    """The per-layer metrics, from the spans of every traced item."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for metric, span, scale, unit in LAYER_SPANS:
        out[metric] = (statistics.median(s.seconds for s in by_name[span])
                       * scale, unit)
    solves = {s.item: s.seconds for s in spans
              if s.name.startswith("arith.solve_ternary.")}
    out["arith.solve_ternary.calls"] = (len(solves), "count")
    normalize = [s.seconds - solves[s.item] for s in by_name["redei.context"]
                 if s.item in solves]
    out["redei.normalize_ms"] = (statistics.median(normalize) * 1e3, "ms")
    out["redei.degenerate_ratio"] = (degenerate / len(by_name["redei.summand"]),
                                     "ratio")
    notes = [s.note for s in by_name["item"] if isinstance(s.note, dict)]
    out["search.coord3_hit_ratio"] = (
        sum(n["accepted"] for n in notes) / sum(n["screened"] for n in notes),
        "ratio")
    validates = by_name["additive.validate"]
    out["additive.cells_per_s"] = (
        sum(s.note for s in validates) / sum(s.seconds for s in validates),
        "cells/s")
    return out


def traced(workload: str, seed: int, seconds: float, workloads, gen):
    layers = import_split(seed)
    # The untraced twin runs the same items from the same cold start in a
    # fresh interpreter, so that traced minus untraced is the overhead.
    twin = json.loads(run_child([
        str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds / 2), "--trace", "0"]).stdout.splitlines()[-1])
    workloads.WORKLOADS[workload].warmup(gen.warmup_items(workload, seed))
    run = Run(workloads, gen, workload, seed)
    tr = workloads.Tracer(True)
    while run.attempted < twin["attempted"]:
        run.one(tr)
    runs = [run]
    for other in workloads.WORKLOADS:
        if other != workload:
            workloads.WORKLOADS[other].warmup(gen.warmup_items(other, seed))
            probe = Run(workloads, gen, other, seed)
            probe.until_covered(workloads.KINDS[other], tr)
            runs.append(probe)
    workloads.layer_probes(tr)
    metrics = dict(layers)
    metrics.update(layer_metrics(tr.spans, tr.degenerate))
    metrics["trace.overhead_ms"] = (
        statistics.median(run.latencies) * 1e3
        - twin["metrics"]["item_p50_ms"]["value"], "ms")
    attempted = twin["attempted"] + sum(r.attempted for r in runs)
    failed = twin["failed"] + sum(r.failed for r in runs)
    print(f"workload {workload}  seed {seed}  traced")
    print(f"  items: {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / attempted}")
    print(f"  {twin['attempted']} {workload} items untraced in a fresh "
          f"interpreter, the same items traced, then traced items of the "
          f"other workloads until each pipeline ran once")
    share_of_items(tr.spans, workload)
    write_spans(tr.spans, workload, seed)
    return attempted, failed, metrics


def share_of_items(spans, workload: str) -> None:
    """Each call's share of the traced workload items' core time."""
    core = {}
    for s in spans:
        if (s.name != "item" and not s.extra
                and s.item.startswith(f"{workload}:")):
            core[s.name] = core.get(s.name, 0.0) + s.seconds
    total = sum(core.values()) or 1.0
    for name, secs in sorted(core.items(), key=lambda kv: -kv[1]):
        print(f"  share {name:32s} {secs / total:7.2%}  ({secs:.4f} s)")


def write_spans(spans, workload: str, seed: int) -> None:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    rows = [{"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "item": s.item, "extra": s.extra}
            for s in spans]
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(rows))
    print(f"  {len(rows)} spans written to {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("symbols", "certify", "search", "additive"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "narrow2" / "__init__.py").is_file():
        fail(f"no narrow2 sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import narrow2

    if Path(narrow2.__file__).resolve().parent != SRC / "narrow2":
        fail(f"imported narrow2 from {narrow2.__file__}, not {SRC}")
    import gen
    import workloads

    if args.trace:
        attempted, failed, metrics = traced(args.workload, args.seed,
                                            args.seconds, workloads, gen)
    else:
        run, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                  workloads, gen)
        attempted, failed = run.attempted, run.failed
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
