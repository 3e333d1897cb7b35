"""Workload pipelines, output checks and span tracing.

Each workload runs its items through the public functions of narrow2 in a
closed loop with one caller.  The untraced pipeline makes exactly the calls a
user would make; the traced pipeline times each public call as a span and
adds diagnostic calls (marked extra) that split an item by layer.  Spans live
in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from narrow2 import (
    ArgumentError,
    DegenerateContextError,
    RedeiSpace,
    derive_closure,
    extend_space,
    factorize,
    find_ray_class_vector,
    from_json,
    fundamental_unit,
    is_maximal,
    legendre,
    parse_acceptable,
    primes_one_mod_four,
    ray_class_report,
    redei_context,
    redei_symbol,
    solve_ternary,
    symbol_from_context,
    to_json,
    validate,
    verify_shrinking,
    verify_space,
    verify_unit_reduction,
)

import gen

SEARCH_LIMIT = 10**7
RAY_LIMIT = 10**6


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the item span, None for item spans
    item: str               # "<workload>:<index>", shared by an item's spans
    extra: bool             # diagnostic call the untraced item does not make
    note: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per timed call; `on` is False for untraced runs,
    where calls go straight through."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self.item = ""
        self.parent: int | None = None
        self.degenerate = 0

    def __call__(self, name, fn, *args, extra=False, note=None, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, start, time.perf_counter(),
                                   self.parent, self.item, extra, note))

    def begin_item(self, item: str) -> None:
        self.item = item
        self.parent = len(self.spans)
        self.spans.append(Span("item", time.perf_counter(), 0.0, None, item,
                               False))

    def end_item(self) -> None:
        self.spans[self.parent].end = time.perf_counter()
        self.parent = None

    def item_core_seconds(self) -> float:
        """Duration of the current item less its extra spans."""
        item = self.spans[self.parent]
        extra = sum(s.seconds for s in self.spans[self.parent + 1 :]
                    if s.extra)
        return time.perf_counter() - item.start - extra


def jsonable(x):
    return json.loads(json.dumps(x))


# ---------------------------------------------------------------- symbols

def symbols_run(item, tr: Tracer):
    a, b, c, band = item
    if tr.on:
        tr(f"arith.solve_ternary.{band}", solve_ternary, a, b, extra=True)
        ctx = tr("redei.context", redei_context, a, b, note=band)
        value = tr("redei.symbol_warm", redei_symbol, a, b, c)
        summand = tr("redei.summand", _summand, ctx, c, extra=True)
        if summand is None:
            tr.degenerate += 1
        elif summand != value:
            return -1, None
        return value, None
    return redei_symbol(a, b, c), None


def _summand(ctx, c):
    """symbol_from_context, or None when the first context degenerates at
    a prime of c (redei_symbol then retries with further contexts)."""
    try:
        return symbol_from_context(ctx, c)
    except DegenerateContextError:
        return None


def symbols_check(item, value, keep, index: int) -> bool:
    a, b, c, _ = item
    if value not in (0, 1):
        return False
    # Redei reciprocity [a, b, c] = [a, c, b] on every eighth item; the
    # swapped pair is fresh, so this costs one more cold context.
    return index % 8 != 0 or redei_symbol(a, c, b) == value


def symbols_warmup(items):
    for a, b, c, _ in items:
        redei_symbol(a, b, c)


# ---------------------------------------------------------------- certify

def _report_doc(report) -> dict:
    return {"verdict": report.verdict, "bound": report.bound,
            "omega": report.omega_total,
            "failed": [[kind, list(args)]
                       for kind, args in report.failed_conditions]}


def certify_run(item, tr: Tracer):
    kind, entries, extra = item
    if kind == "ray":
        report = tr("rayclass.report", ray_class_report, entries, extra)
        if tr.on:
            tr("rayclass.unit_reduction", verify_unit_reduction, entries, extra,
               extra=True)
            for d in report.units.subfield_list:
                tr("arith.fundamental_unit", fundamental_unit, d, extra=True)
        return {"maximal": _report_doc(report.maximal), "bound": report.bound,
                "rows": [list(r) for r in report.units.rows],
                "attained": report.attained}, None
    v = tr("maximality.parse", parse_acceptable, entries)
    report = tr("maximality.is_maximal_cold", is_maximal, v)
    if tr.on:
        tr("maximality.is_maximal_warm", is_maximal, v, extra=True)
        primes = extra
        for i in range(3):
            j, k = [t for t in range(3) if t != i]
            ell, p, r = primes[i][0], primes[j][0], primes[k][0]
            ctx = tr("redei.context_warm", redei_context, ell, p, extra=True)
            if tr("redei.summand", _summand, ctx, r, extra=True) is None:
                tr.degenerate += 1
            tr("redei.symbol_warm", redei_symbol, ell, p, r, extra=True)
    return _report_doc(report), None


def _maximal_conditions(entries, primes) -> list:
    """The n = 3 Redei conditions, reduced by the benchmark itself from
    prime-level symbols (warm: is_maximal cached every pair context)."""
    failed = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        for p in primes[j]:
            for r in primes[k]:
                val = 0
                for ell in primes[i]:
                    val ^= redei_symbol(ell, p, r)
                if val:
                    failed.append(["redei", [entries[i], p, r]])
    return sorted(failed)


def certify_check(item, out, keep, index: int) -> bool:
    kind, entries, extra = item
    if kind == "ray":
        a1, a2 = entries
        c_primes = gen.prime_factors(extra)
        consistent = gen.legendre(a1, a2) == 1
        rows = [[d, l, gen.legendre(d, l) == 1]
                for d in (-1, a1, a2, a1 * a2) for l in c_primes]
        maximal = out["maximal"]
        return (maximal["verdict"] == consistent
                and maximal["failed"] == ([] if consistent else
                                          [["legendre", [a1, a2]]])
                and out["bound"] == 1 + 4 * len(c_primes)
                and [r[:3] for r in out["rows"]] == rows
                and out["attained"] == (consistent and
                                        all(r[2] and r[3] for r in out["rows"])))
    omega = sum(len(p) for p in extra)
    return (out["verdict"] == (not out["failed"])
            and out["omega"] == omega and out["bound"] == 4 * omega - 7
            and out["failed"] == _maximal_conditions(entries, extra))


def certify_warmup(items):
    for kind, entries, extra in items:
        if kind == "ray":
            ray_class_report(entries, extra)
        else:
            is_maximal(parse_acceptable(entries))


# ----------------------------------------------------------------- search

def search_run(item, tr: Tracer):
    first, c = item
    s1 = tr("search.extend.coord1", RedeiSpace, (first,))
    s2 = tr("search.extend.coord2", extend_space, s1, 3, SEARCH_LIMIT,
            worker_count=1)
    s3 = tr("search.extend.coord3", extend_space, s2, 3, SEARCH_LIMIT,
            worker_count=1)
    v = tr("search.ray", find_ray_class_vector, c, (1, 1), RAY_LIMIT,
           worker_count=1)
    if tr.on:
        _trace_search_layers(tr, s2, s3)
    return {"sets": [list(x) for x in s3.sets], "ray": list(v.entries)}, None


def _trace_search_layers(tr: Tracer, s2, s3):
    """Per-candidate costs of the last coordinate: the screened-candidate
    count, warm symbols against the cached pair contexts, and factorize and
    legendre on candidate-sized primes."""
    hits = s3.sets[2]
    candidates = tr("bench.screened", _screened, s2, hits[-1], extra=True)
    tr.spans[tr.parent].note = {"accepted": len(hits),
                                "screened": len(candidates)}
    pairs = [(p, q) for p in s2.sets[0] for q in s2.sets[1]]
    for z in hits:
        for p, q in pairs:
            tr("redei.symbol_warm", redei_symbol, p, q, z, extra=True)
    step = max(1, len(candidates) // 64)
    for z in candidates[::step]:
        tr("arith.factorize", factorize, z, extra=True)
        tr("arith.legendre", legendre, z, s2.sets[0][0], extra=True)


_CANDIDATES: list[int] = []


def _screened(space, last_hit: int) -> list[int]:
    """Sieve candidates the last coordinate screened: primes = 1 mod 4 up
    to its last hit that the space does not hold, from the benchmark's own
    sieve (built once per traced run)."""
    if not _CANDIDATES:
        _CANDIDATES.extend(gen.primes_one_mod_four(SEARCH_LIMIT))
    taken = set(space.primes)
    return [z for z in _CANDIDATES[:bisect_right(_CANDIDATES, last_hit)]
            if z not in taken]


def search_check(item, out, keep, index: int) -> bool:
    first, c = item
    sets = out["sets"]
    if (len(sets) != 3 or tuple(sets[0]) != first
            or any(len(x) != 3 or x != sorted(x) for x in sets[1:])
            or any(p % 4 != 1 or not gen.is_prime(p) or p > SEARCH_LIMIT
                   for x in sets[1:] for p in x)):
        return False
    space = RedeiSpace(tuple(tuple(x) for x in sets))
    return (verify_space(space)
            and ray_class_report(out["ray"], c).attained)


def search_warmup(items):
    """Fill the per-limit sieve caches that every search call shares."""
    for (p,) in items:
        extend_space(RedeiSpace(((p,),)), 1, SEARCH_LIMIT, worker_count=1)
        extend_space(RedeiSpace(((p,),)), 1, RAY_LIMIT, worker_count=1)


# --------------------------------------------------------------- additive

def additive_run(item, tr: Tracer):
    d, sizes, flipped, doc = item
    system = tr("additive.from_json", from_json, doc)
    if tr.on:
        tr("additive.closure", derive_closure, d, sizes, system.F,
           extra=True)
    ok, violations = tr("additive.validate", validate, system,
                        note=_ambient_cells(d, sizes) if tr.on else None)
    try:
        lhs, rhs, holds = tr("additive.shrink", verify_shrinking, system)
        shrink = [str(lhs), str(rhs), holds]
    except ArgumentError:
        shrink = "ArgumentError"
    out = {"valid": ok, "violations": len(violations),
           "first": jsonable(violations[:1]), "shrink": shrink}
    # The parsed system is kept for the round-trip check, which runs
    # outside the timed region.
    return out, system


def _ambient_cells(d: int, sizes) -> int:
    """Cells over all subsets S of the ambient sets X_S."""
    total = 0
    for m in range(1 << d):
        cells = 1
        for i, s in enumerate(sizes):
            cells *= s * s if m >> i & 1 else s
        total += cells
    return total


def additive_check(item, out, system, index: int) -> bool:
    d, sizes, flipped, doc = item
    if to_json(system) != doc:
        return False
    if flipped:
        return (not out["valid"] and out["violations"] > 0
                and out["shrink"] == "ArgumentError")
    if not out["valid"] or out["violations"] or out["shrink"] == "ArgumentError":
        return False
    lhs, rhs, holds = out["shrink"]
    return holds is True and Fraction(lhs) >= Fraction(rhs)


def additive_warmup(items):
    for d, sizes, flipped, doc in items:
        system = from_json(doc)
        validate(system)
        verify_shrinking(system)


# -------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    run: object
    check: object
    warmup: object
    kind: object        # item -> the pipeline it takes
    item_noun: str      # what one item is, for the report


WORKLOADS = {
    "symbols": Workload("symbols", symbols_run, symbols_check,
                        symbols_warmup, lambda item: item[3], "symbol"),
    "certify": Workload("certify", certify_run, certify_check,
                        certify_warmup, lambda item: item[0], "certificate"),
    "search": Workload("search", search_run, search_check, search_warmup,
                       lambda item: "search", "seeded search"),
    "additive": Workload("additive", additive_run, additive_check,
                         additive_warmup, lambda item: "system", "system"),
}

# Every pipeline kind, so that a traced run can cover every layer.
KINDS = {"symbols": {"grid", "descent"}, "certify": {"ray", "maximal"},
         "search": {"search"}, "additive": {"system"}}


def layer_probes(tr: Tracer) -> None:
    """Whole-layer timings that no single item gives: the sieve behind
    every search."""
    tr("arith.sieve", primes_one_mod_four, SEARCH_LIMIT, extra=True)
