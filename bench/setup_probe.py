"""Set-up cost of one fresh interpreter: `import narrow2` plus the
workload's warm-up items, as every CLI call pays them.

    python3 bench/setup_probe.py WORKLOAD SEED [--layers]

Prints one JSON line with import_s and warmup_s.  With --layers it instead
times two descent-band solve_ternary calls (the first one pays sympy's lazy
import); run it under `python -X importtime` to split the import.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> None:
    workload, seed = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    import narrow2
    t1 = time.perf_counter()
    import gen

    if "--layers" in sys.argv[3:]:
        pairs = [item[:2] for item in gen.warmup_items("symbols", seed)
                 + gen.warmup_items("symbols", f"{seed}:again")
                 if item[3] == "descent"]
        times = []
        for a, b in pairs:
            start = time.perf_counter()
            narrow2.solve_ternary(a, b)
            times.append(time.perf_counter() - start)
        print(json.dumps({"import_s": t1 - t0, "descent_first_s": times[0],
                          "descent_again_s": times[1]}))
        return
    import workloads

    items = gen.warmup_items(workload, seed)
    t2 = time.perf_counter()
    workloads.WORKLOADS[workload].warmup(items)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2}))


if __name__ == "__main__":
    main()
