"""Command-line surface: symbols, certificates, searches, additive systems,
and the GP script emitter.

Exit codes are stable: 0 completed (a false verdict is still 0), 2 bad
arguments or violated preconditions, 3 unsupported dimension, 4 search
exhaustion, 5 malformed system document, 6 unwritable output path.  JSON
output is key-sorted and contains no timing unless --timing is passed, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import additive, rayclass, search
from .arith import legendre
from .errors import (
    ArgumentError,
    SearchExhaustedError,
    SystemFormatError,
    UnsupportedDimensionError,
)
from .maximality import (
    is_maximal,
    parse_acceptable,
    torsion_bound,
)
from .redei import redei_context, redei_symbol

EXIT_CODES = {
    "ok": 0,
    "argument": 2,
    "dimension": 3,
    "exhausted": 4,
    "format": 5,
    "output": 6,
}

_DEFAULT_LIMIT = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    prime_limit: int = _DEFAULT_LIMIT
    worker_count: int = 1
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self):
        if self.prime_limit < 3:
            raise ArgumentError("prime limit must be >= 3")
        if self.worker_count < 1:
            raise ArgumentError("worker count must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ArgumentError("seed must fit in 64 bits")
        if self.output_format not in ("json", "csv", "text"):
            raise ArgumentError(f"unknown format {self.output_format!r}")


def _config(args) -> RunConfig:
    # only the search commands take --limit, so only they read NARROW2_LIMIT
    limit = getattr(args, "limit", _DEFAULT_LIMIT)
    if limit is None:
        text = os.environ.get("NARROW2_LIMIT", str(_DEFAULT_LIMIT))
        try:
            limit = int(text)
        except ValueError:
            raise ArgumentError(
                f"NARROW2_LIMIT must be an integer, got {text!r}") from None
    return RunConfig(
        prime_limit=int(limit),
        worker_count=getattr(args, "workers", 1),
        seed=getattr(args, "seed", 0),
        output_format=getattr(args, "format", "json"),
        output_path=getattr(args, "out", None),
    )


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _maximality_doc(report) -> dict:
    return {
        "verdict": report.verdict,
        "n": report.n,
        "omega_total": report.omega_total,
        "torsion_bound": report.bound,
        "failed_conditions": [[kind, list(args)]
                              for kind, args in report.failed_conditions],
    }


def _units_doc(report) -> dict:
    return {
        "c": report.c,
        "subfields": list(report.subfield_list),
        "rows": [{"d": d, "l": l, "split": split, "unit_is_square": square}
                 for d, l, split, square in report.rows],
        "scope": report.scope,
        "verdict": report.verdict,
    }


def _vector_doc(v) -> dict:
    return {
        "entries": list(v.entries),
        "factorizations": [list(f) for f in v.factorizations],
        "torsion_bound": torsion_bound(v),
    }


def _certificate_doc(cert) -> list:
    return [[kind, list(args)] for kind, args in cert]


# ----------------------------------------------------------------- commands

def cmd_symbol(args, config: RunConfig) -> str:
    if args.kind == "legendre":
        if len(args.values) != 2:
            raise ArgumentError("legendre takes exactly two arguments")
        return f"{legendre(args.values[0], args.values[1])}\n"
    if len(args.values) != 3:
        raise ArgumentError("redei takes exactly three arguments")
    a, b, c = args.values
    value = redei_symbol(a, b, c)
    out = f"{value}\n"
    if args.verbose:
        ctx = redei_context(a, b)
        s = ctx.solution
        out += f"solution {s.x} {s.y} {s.z}\n"
        out += "quartic " + " ".join(str(t) for t in ctx.quartic) + "\n"
    return out


def cmd_maximal(args, config: RunConfig) -> str:
    v = parse_acceptable(tuple(args.entries))
    ray = None if args.c is None else rayclass.ray_class_report(v, args.c)
    report = is_maximal(v) if ray is None else ray.maximal
    doc = _vector_doc(v) | {"maximal": _maximality_doc(report)}
    if ray is not None:
        doc["ray"] = {
            "c": args.c,
            "ray_bound": ray.bound,
            "units": _units_doc(ray.units),
        }
    if config.output_format == "text":
        lines = [f"entries {' '.join(str(a) for a in v.entries)}",
                 f"maximal {str(report.verdict).lower()}",
                 f"torsion_bound {report.bound}"]
        for kind, cond in report.failed_conditions:
            lines.append(f"failed {kind} {' '.join(str(t) for t in cond)}")
        if args.c is not None:
            lines.append(f"ray_bound {doc['ray']['ray_bound']}")
            lines.append(f"units {str(doc['ray']['units']['verdict']).lower()}")
        return "\n".join(lines) + "\n"
    if config.output_format == "csv":
        raise ArgumentError("csv output is only available for search commands")
    return _dumps(doc)


def _timed(doc: dict, started: float, args) -> dict:
    if getattr(args, "timing", False):
        doc["wall_time_s"] = round(time.monotonic() - started, 3)
    return doc


def cmd_search_space(args, config: RunConfig) -> str:
    started = time.monotonic()
    space = search.build_space(args.m, args.n, config.prime_limit)
    if config.output_format == "csv":
        rows = ["coordinate,prime"]
        rows += [f"{i + 1},{p}" for i, coord in enumerate(space.sets)
                 for p in coord]
        return "\n".join(rows) + "\n"
    doc = {
        "limit": config.prime_limit,
        "m": space.m,
        "count": args.n,
        "sets": [list(coord) for coord in space.sets],
        "certificate": _certificate_doc(space.certificate),
    }
    return _dumps(_timed(doc, started, args))


def cmd_search_triples(args, config: RunConfig) -> str:
    started = time.monotonic()
    profile = search.OmegaProfile.of(args.omega)
    vectors = search.enumerate_maximal_vectors(profile, args.pool,
                                               config.prime_limit)
    if config.output_format == "csv":
        rows = ["a1,a2,a3,torsion_bound"]
        rows += [",".join(str(a) for a in v.entries) + f",{torsion_bound(v)}"
                 for v in vectors]
        return "\n".join(rows) + "\n"
    doc = {
        "limit": config.prime_limit,
        "profile": list(profile.parts),
        "pool": args.pool,
        "vectors": [_vector_doc(v)
                    | {"maximal": _maximality_doc(is_maximal(v))}
                    for v in vectors],
    }
    return _dumps(_timed(doc, started, args))


def cmd_search_rayclass(args, config: RunConfig) -> str:
    started = time.monotonic()
    profile = search.OmegaProfile.of(args.omega)
    v = search.find_ray_class_vector(args.c, profile, config.prime_limit)
    report = rayclass.ray_class_report(v, args.c)
    combined = parse_acceptable(((args.c,) if args.c > 1 else ()) + v.entries)
    doc = {
        "limit": config.prime_limit,
        "c": args.c,
        "profile": list(profile.parts),
        "vector": _vector_doc(v),
        "combined": _vector_doc(combined)
        | {"maximal": _maximality_doc(is_maximal(combined))},
        "ray_bound": report.bound,
        "units": _units_doc(report.units),
        "attained": report.attained,
    }
    if config.output_format == "csv":
        raise ArgumentError("csv output is only available for space and triples")
    return _dumps(_timed(doc, started, args))


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError:
        raise ArgumentError(f"bad size list {text!r}") from None


def cmd_additive_random(args, config: RunConfig) -> str:
    parts = _parse_sizes(args.dims)
    masks = additive.subset_masks(args.d)
    if "," not in args.dims and len(parts) == 1:
        dims_value = parts[0]
    elif len(parts) == len(masks):
        dims_value = dict(zip(masks, parts))
    else:
        raise ArgumentError(
            f"need {len(masks)} dims in (size, lex) subset order")
    system = additive.random_bilinear_system(
        config.seed, args.d, _parse_sizes(args.sizes), dims_value)
    return additive.to_json(system) + "\n"


def _load_system(path: str) -> additive.AdditiveSystem:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SystemFormatError(str(e), location=path) from None
    return additive.from_json(text)


def cmd_additive_validate(args, config: RunConfig) -> str:
    system = _load_system(args.infile)
    ok, violations = additive.validate(system)
    if config.output_format == "text":
        lines = [f"valid {str(ok).lower()}"]
        lines += [" ".join(str(t) for t in v) for v in violations]
        return "\n".join(lines) + "\n"
    doc = {"valid": ok,
           "violations": [[v[0], *[list(t) if isinstance(t, tuple) else t
                                   for t in v[1:]]] for v in violations]}
    return _dumps(doc)


def cmd_additive_shrink(args, config: RunConfig) -> str:
    system = _load_system(args.infile)
    lhs, rhs, holds = additive.verify_shrinking(system)
    return f"lhs {lhs} rhs {rhs} holds {str(holds).lower()}\n"


def cmd_emit_gp(args, config: RunConfig) -> str:
    return rayclass.emit_gp_script(tuple(args.entries), args.c)


# ------------------------------------------------------------------ parser

def _add_output_flags(p, formats=("json", "text")):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_search_flags(p):
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and has no effect; search runs in one thread")
    p.add_argument("--timing", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narrow2",
        description="2-torsion bounds and certificates for narrow and ray "
                    "class groups of multiquadratic fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", help="evaluate a Legendre or triple symbol")
    p.add_argument("kind", choices=("legendre", "redei"))
    p.add_argument("values", nargs="+", type=int)
    p.add_argument("--verbose", action="store_true",
                   help="also print the solution and quartic behind the symbol")
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("maximal", help="certify maximality of a vector")
    p.add_argument("entries", nargs="+", type=int)
    p.add_argument("--c", type=int, default=None,
                   help="also compute the ray bound and unit report mod c")
    _add_output_flags(p)
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("search", help="constructive searches")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    q = ssub.add_parser("space", help="build a space coordinate by coordinate")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True,
                   help="primes per coordinate")
    _add_search_flags(q)
    _add_output_flags(q, ("json", "csv"))
    q.set_defaults(func=cmd_search_space)

    q = ssub.add_parser("triples", help="enumerate maximal vectors")
    q.add_argument("--omega", required=True,
                   help="comma-separated factor counts, e.g. 1,1,1")
    q.add_argument("--pool", type=int, default=1)
    _add_search_flags(q)
    _add_output_flags(q, ("json", "csv"))
    q.set_defaults(func=cmd_search_triples)

    q = ssub.add_parser("rayclass", help="search a vector for a ray modulus")
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--omega", required=True)
    _add_search_flags(q)
    _add_output_flags(q, ("json",))
    q.set_defaults(func=cmd_search_rayclass)

    p = sub.add_parser("additive", help="finite additive systems")
    asub = p.add_subparsers(dest="subcommand", required=True)

    q = asub.add_parser("random", help="generate a seeded bilinear system")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--sizes", default="")
    q.add_argument("--dims", default="1",
                   help="one dimension for every subset, or a full comma list")
    q.add_argument("--out")
    q.set_defaults(func=cmd_additive_random)

    q = asub.add_parser("validate", help="check closure and additivity")
    q.add_argument("--in", dest="infile", required=True)
    _add_output_flags(q)
    q.set_defaults(func=cmd_additive_validate)

    q = asub.add_parser("shrink", help="evaluate the density inequality")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_additive_shrink)

    p = sub.add_parser("emit-gp", help="write the external cross-check script")
    p.add_argument("entries", nargs="+", type=int)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit_gp)

    return parser


def _parse_omega(text: str):
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError:
        raise ArgumentError(f"bad profile {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "omega", None) is not None:
            args.omega = _parse_omega(args.omega)
        config = _config(args)
        output = args.func(args, config)
        if config.output_path:
            try:
                with open(config.output_path, "w", encoding="utf-8",
                          newline="\n") as fh:
                    fh.write(output)
            except OSError as e:
                print(f"error: cannot write {config.output_path}: {e}",
                      file=sys.stderr)
                return EXIT_CODES["output"]
        else:
            sys.stdout.write(output)
        return EXIT_CODES["ok"]
    except UnsupportedDimensionError as e:
        print(f"error: unsupported dimension: {e}", file=sys.stderr)
        return EXIT_CODES["dimension"]
    except SearchExhaustedError as e:
        print(f"error: search exhausted: {e}", file=sys.stderr)
        return EXIT_CODES["exhausted"]
    except SystemFormatError as e:
        print(f"error: malformed system: {e}", file=sys.stderr)
        return EXIT_CODES["format"]
    except ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CODES["argument"]


if __name__ == "__main__":
    sys.exit(main())
