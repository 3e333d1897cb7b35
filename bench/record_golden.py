"""Record the golden outputs the benchmark compares against.

    python3 bench/record_golden.py [WORKLOAD ...]

Runs the first items of each workload stream for the default seed (and every
round of the search pool) untraced, checks each output by the workload's
invariants, and writes bench/golden/<workload>.json as [input, output] pairs.
Record only from a commit whose outputs are known good.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Enough items to cover a run of a much faster program at the default seed;
# later items are checked by invariants.
COUNTS = {"symbols": 800, "certify": 150, "search": len(gen.search_pool()),
          "additive": 250}


def record(name: str) -> None:
    wl = workloads.WORKLOADS[name]
    wl.warmup(gen.warmup_items(name, run.DEFAULT_SEED))
    stream = gen.STREAMS[name](run.DEFAULT_SEED)
    tr = workloads.Tracer(False)
    rows = []
    for index in range(COUNTS[name]):
        item = next(stream)
        out, keep = wl.run(item, tr)
        if not wl.check(item, out, keep, index):
            raise SystemExit(f"{name} item {index} fails its invariants: "
                             f"{item!r:.200}")
        rows.append([run.golden_key(name, item), workloads.jsonable(out)])
    path = BENCH / "golden" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": name, "seed": run.DEFAULT_SEED,
                                "items": rows}, separators=(",", ":")) + "\n")
    print(f"{name}: {len(rows)} items -> {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        record(name)
