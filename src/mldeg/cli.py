"""Command line front end.

Queries print one JSON object to stdout (sorted keys, rationals as
"p/q" strings) so reruns and worker counts can be compared byte for
byte; timing and cache-hit counters go to stderr only.  Exit codes:
0 success, 1 a checked property failed, 2 usage, 3 two formula paths
disagreed on the same query.

The coefficient cache is opt-in via --cache PATH or MLDEG_CACHE and is
append-only: reloading a cache file yields the table that produced it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import checks, lascoux
from .degrees import (
    canonical_type,
    delta_direct_info,
    delta_nrs_info,
    phi_value,
)
from .exact import ConsistencyError, format_fraction
from .indexsets import format_indexset
from .lascoux import (
    alpha,
    alpha_complement,
    d_a,
    d_a_complement,
    d_a_recursion,
    psi,
    psi_complement,
    psi_pascal,
    psi_recursion,
    s_ij,
)
from .poly_n import phi_poly
from .schur_oracle import alpha_oracle, d_oracle, psi_oracle

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3

CACHE_HEADER = "# coeff-cache v1"
CACHE_ENV = "MLDEG_CACHE"
_VERIFY_SEED = 94037

# Query size caps; computations past these are possible but slow, so
# the command layer refuses them unless --unsafe-range is passed.  The
# library itself never enforces them.
_N_CAP = {"sym": 7, "a": 4, "d": 4}
_D_CAP = 12


class UsageError(Exception):
    pass


@dataclasses.dataclass
class RunConfig:
    jobs: int = 1
    cache_path: str | None = None
    verify_cache: bool = False
    unsafe_range: bool = False


@dataclasses.dataclass
class OutputRecord:
    payload: dict
    wall_time_s: float = 0.0
    cache_hits: int = 0
    csv_lines: list | None = None

    def emit(self, out=None, err=None):
        out = out or sys.stdout
        err = err or sys.stderr
        if self.csv_lines is not None:
            for line in self.csv_lines:
                print(line, file=out)
        else:
            print(json.dumps(self.payload, sort_keys=True, default=_json_default),
                  file=out)
        print(f"wall_time_s={self.wall_time_s:.3f} cache_hits={self.cache_hits}",
              file=err)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON renderable: {obj!r}")


def _render_q(value):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return value


# ------------------------------------------------------------------ parsing

def parse_set(text):
    """Index set from '{0,3}' or '0,3'; '{}' and '' are the empty set."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return ()
    try:
        entries = tuple(int(part) for part in body.split(","))
    except ValueError:
        raise UsageError(f"malformed index set: {text!r}") from None
    if entries[0] < 0 or any(a >= b for a, b in zip(entries, entries[1:])):
        raise UsageError(
            f"index set needs strictly increasing nonnegative entries: {text!r}"
        )
    return entries


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes; results do not depend on N")
    common.add_argument("--cache", default=None, metavar="PATH",
                        help="coefficient cache file (or set MLDEG_CACHE)")
    common.add_argument("--verify-cache", action="store_true",
                        help="recompute a 1%% sample of the cache before use")
    common.add_argument("--unsafe-range", action="store_true",
                        help="lift the default size caps")

    parser = argparse.ArgumentParser(
        prog="mldeg",
        description="Exact rank-degree and inverse-degree computations "
                    "for symmetric, square and skew matrix pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", parents=[common],
                       help="single coefficient of one of the three families")
    p.add_argument("--set", dest="set_", required=True, metavar="I",
                   help="index set, e.g. '{0,3}'")
    p.add_argument("--pair", default=None, metavar="J",
                   help="second index set (two-set family only)")
    p.add_argument("--family", choices=("psi", "alpha", "d"), default="psi")
    p.add_argument("--complement", type=int, default=None, metavar="N",
                   help="evaluate the complement of the set inside {0..N-1}")
    p.add_argument("--path", default=None,
                   choices=("pfaffian", "pascal", "recursion", "oracle"))

    p = sub.add_parser("delta", parents=[common],
                       help="algebraic degree of one rank locus")
    p.add_argument("--type", dest="matrix_type", default="sym")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--path", choices=("direct", "nrs", "both"), default="direct")

    p = sub.add_parser("phi", parents=[common],
                       help="inverse-map degree count, pointwise or as a polynomial")
    p.add_argument("--type", dest="matrix_type", default="sym")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("--poly", action="store_true",
                   help="coefficients in n, ascending")
    p.add_argument("--table", type=int, default=None, metavar="DMAX",
                   help="CSV of coefficient rows for d = 1..DMAX")

    p = sub.add_parser("check", parents=[common],
                       help="run a named invariant suite")
    p.add_argument("suite", choices=checks.suite_names())
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--sum-max", type=int, default=None, dest="sum_max")

    return parser


# -------------------------------------------------------------------- cache

_CACHE_FAMILIES = ("psi", "alpha", "da", "sij")


class _TrackedMemo(dict):
    """Memo dict that counts lookups answered by preloaded entries."""

    def __init__(self, preloaded):
        super().__init__(preloaded)
        self.preloaded = frozenset(preloaded)
        self.hits = 0

    def __contains__(self, key):
        found = dict.__contains__(self, key)
        if found and key in self.preloaded:
            self.hits += 1
        return found


def _parse_cache_key(family, text):
    if family in ("psi", "alpha"):
        return parse_set(text)
    left, sep, right = text.partition("|")
    if not sep:
        raise UsageError(f"two-set cache key needs 'I|J': {text!r}")
    return (parse_set(left), parse_set(right))


def _format_cache_key(family, key):
    if family in ("psi", "alpha"):
        return format_indexset(key)
    return format_indexset(key[0]) + "|" + format_indexset(key[1])


def probe_cache(path):
    """Open the cache for appending once, so a bad path fails before any work."""
    try:
        with open(path, "a", encoding="ascii"):
            pass
    except OSError as exc:
        raise UsageError(f"cache file {path!r} is not writable: {exc.strerror}") from None


def load_cache(path):
    entries = {family: {} for family in _CACHE_FAMILIES}
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return entries
    with open(path, encoding="ascii") as handle:
        first = handle.readline().rstrip("\n")
        if first != CACHE_HEADER:
            raise UsageError(f"cache file {path!r} has unknown header {first!r}")
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[0] not in _CACHE_FAMILIES:
                raise UsageError(f"bad cache line {lineno} in {path!r}")
            family, key_text, value_text = parts
            try:
                value = int(value_text)
            except ValueError:
                raise UsageError(f"bad cache value on line {lineno}") from None
            entries[family][_parse_cache_key(family, key_text)] = value
    return entries


_RECOMPUTE = {
    "psi": lambda key: psi(key),
    "alpha": lambda key: alpha(key),
    "da": lambda key: d_a(*key),
    "sij": lambda key: s_ij(*key),
}


def verify_cache_sample(entries):
    """Recompute a deterministic 1% sample; returns mismatch strings."""
    flat = [(family, key, value)
            for family in _CACHE_FAMILIES
            for key, value in sorted(entries[family].items())]
    if not flat:
        return []
    count = max(1, len(flat) // 100)
    rng = random.Random(_VERIFY_SEED)
    mismatches = []
    for family, key, value in rng.sample(flat, min(count, len(flat))):
        fresh = _RECOMPUTE[family](key)
        if fresh != value:
            mismatches.append(
                f"{family} {_format_cache_key(family, key)}: "
                f"cached {value}, recomputed {fresh}"
            )
    return mismatches


def install_cache(entries):
    """Swap the coefficient memos for tracked ones seeded from the cache."""
    memos = {
        "psi": _TrackedMemo(entries["psi"]),
        "alpha": _TrackedMemo(entries["alpha"]),
        "da": _TrackedMemo(entries["da"]),
        "sij": _TrackedMemo(entries["sij"]),
    }
    lascoux._psi_memo = memos["psi"]
    lascoux._alpha_memo = memos["alpha"]
    lascoux._da_memo = memos["da"]
    lascoux._sij_memo = memos["sij"]
    return memos


def append_new_entries(path, memos):
    lines = []
    for family in _CACHE_FAMILIES:
        memo = memos[family]
        for key in memo:
            if key not in memo.preloaded:
                lines.append(
                    f"{family}\t{_format_cache_key(family, key)}\t{memo[key]}"
                )
    lines.sort()
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    if fresh or lines:
        with open(path, "a", encoding="ascii") as handle:
            if fresh:
                handle.write(CACHE_HEADER + "\n")
            for line in lines:
                handle.write(line + "\n")
    return len(lines)


# ----------------------------------------------------------------- commands

def _require(condition, message):
    if not condition:
        raise UsageError(message)


def cmd_psi(args, config):
    I = parse_set(args.set_)
    family = args.family
    pair = None
    if args.pair is not None:
        _require(family == "d", "--pair only applies to the two-set family")
        pair = parse_set(args.pair)
    if family == "d":
        _require(args.pair is not None, "two-set family needs --pair")

    query = {"family": family, "set": format_indexset(I)}
    if pair is not None:
        query["pair"] = format_indexset(pair)

    if args.complement is not None:
        _require(args.path is None, "--path does not combine with --complement")
        n = args.complement
        _require(n >= 0, "--complement needs a nonnegative size")
        query["complement"] = n
        if family == "psi":
            value = psi_complement(I, n)
        elif family == "alpha":
            value = alpha_complement(I, n)
        else:
            value = d_a_complement(I, pair, n)
        return {"query": query, "result": value, "path": "complement"}, EXIT_OK

    if family == "psi":
        routes = {"pfaffian": psi, "pascal": psi_pascal,
                  "recursion": psi_recursion, "oracle": psi_oracle}
        path = args.path or "pfaffian"
        value = routes[path](I)
    elif family == "alpha":
        path = args.path or "recursion"
        _require(path in ("recursion", "oracle"),
                 f"one-set skew family has no {path!r} path")
        value = alpha(I) if path == "recursion" else alpha_oracle(I)
    else:
        path = args.path or "pascal"
        _require(path in ("pascal", "recursion", "oracle"),
                 f"two-set family has no {path!r} path")
        if path == "recursion":
            _require(len(I) == len(pair),
                     "recursion path needs sets of equal size")
            value = d_a_recursion(I, pair)
        elif path == "oracle":
            value = d_oracle(I, pair)
        else:
            value = d_a(I, pair)
    return {"query": query, "result": value, "path": path}, EXIT_OK


def cmd_delta(args, config):
    try:
        kind = canonical_type(args.matrix_type)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    m, n, r = args.m, args.n, args.r
    _require(n >= 1, "need n >= 1")
    _require(0 <= r <= n, "need 0 <= r <= n")
    _require(m >= 0, "need m >= 0")
    if not config.unsafe_range:
        _require(n <= _N_CAP[kind],
                 f"n={n} is past the default cap for type {kind!r} "
                 f"(pass --unsafe-range to lift)")
    path = args.path
    if path in ("nrs", "both"):
        _require(m >= 1, "closed form needs m >= 1")
        _require(r < n, "closed form needs rank below n")

    query = {"family": "delta", "m": m, "n": n, "r": r, "type": kind}
    paths = {}
    values = {}
    if path in ("direct", "both"):
        values["direct"], terms = delta_direct_info(kind, m, n, r, config.jobs)
        paths["direct"] = {"terms": terms, "value": values["direct"]}
    if path in ("nrs", "both"):
        values["nrs"], terms = delta_nrs_info(kind, m, n, r, config.jobs)
        paths["nrs"] = {"terms": terms, "value": values["nrs"]}

    payload = {"paths": paths, "query": query}
    if len(set(values.values())) > 1:
        payload["result"] = None
        print(
            f"path disagreement at (type={kind}, m={m}, n={n}, r={r}): "
            f"direct {values['direct']} vs closed form {values['nrs']}",
            file=sys.stderr,
        )
        return payload, EXIT_DISAGREE
    payload["result"] = next(iter(values.values()))
    return payload, EXIT_OK


def cmd_phi(args, config):
    try:
        kind = canonical_type(args.matrix_type)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    if args.table is not None:
        _require(not args.poly and args.n is None and args.d is None,
                 "--table does not combine with -n, -d or --poly")
        dmax = args.table
        _require(dmax >= 1, "--table needs DMAX >= 1")
        if not config.unsafe_range:
            _require(dmax <= _D_CAP,
                     f"DMAX={dmax} is past the default cap "
                     f"(pass --unsafe-range to lift)")
        header = "d," + ",".join(f"coeff_{k}" for k in range(dmax))
        lines = [header]
        for d in range(1, dmax + 1):
            poly = phi_poly(kind, d)
            cells = [format_fraction(c) for c in poly.coeffs]
            cells += ["0"] * (dmax - len(cells))
            lines.append(str(d) + "," + ",".join(cells))
        return {"csv": lines}, EXIT_OK

    if args.poly:
        _require(args.d is not None, "--poly needs -d")
        _require(args.n is None, "--poly does not take -n")
        d = args.d
        _require(d >= 1, "need d >= 1")
        if not config.unsafe_range:
            _require(d <= _D_CAP,
                     f"d={d} is past the default cap (pass --unsafe-range to lift)")
        poly = phi_poly(kind, d)
        coeffs = [_render_q(c) for c in poly.coeffs]
        query = {"d": d, "family": "phi", "poly": True, "type": kind}
        return {"query": query, "result": coeffs}, EXIT_OK

    _require(args.n is not None and args.d is not None,
             "value query needs both -n and -d")
    n, d = args.n, args.d
    _require(n >= 1 and d >= 1, "need n >= 1 and d >= 1")
    if not config.unsafe_range:
        _require(n <= _N_CAP[kind],
                 f"n={n} is past the default cap for type {kind!r} "
                 f"(pass --unsafe-range to lift)")
        _require(d <= _D_CAP,
                 f"d={d} is past the default cap (pass --unsafe-range to lift)")
    value = phi_value(kind, n, d)
    query = {"d": d, "family": "phi", "n": n, "type": kind}
    return {"query": query, "result": value}, EXIT_OK


def cmd_check(args, config):
    for flag, value in (("--nmax", args.nmax), ("--sum-max", args.sum_max)):
        _require(value is None or value >= 0, f"{flag} needs a nonnegative value")
    results, failures = checks.run_suite(
        args.suite, nmax=args.nmax, sum_max=args.sum_max, jobs=config.jobs
    )
    payload = {
        "failures": [{"detail": f["detail"], "task": f["task"]} for f in failures],
        "ok": not failures,
        "suite": args.suite,
        "tasks": len(results),
    }
    return payload, EXIT_OK if not failures else EXIT_FAIL


_DISPATCH = {"psi": cmd_psi, "delta": cmd_delta, "phi": cmd_phi, "check": cmd_check}


# --------------------------------------------------------------------- main

def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        jobs=args.jobs,
        cache_path=args.cache or os.environ.get(CACHE_ENV),
        verify_cache=args.verify_cache,
        unsafe_range=args.unsafe_range,
    )
    started = time.monotonic()
    memos = None
    try:
        _require(config.jobs >= 1, "--jobs needs N >= 1")
        if config.verify_cache:
            _require(config.cache_path is not None,
                     "--verify-cache needs --cache or MLDEG_CACHE")
        if config.cache_path:
            probe_cache(config.cache_path)
            entries = load_cache(config.cache_path)
            if config.verify_cache:
                mismatches = verify_cache_sample(entries)
                if mismatches:
                    for line in mismatches:
                        print(f"cache mismatch: {line}", file=sys.stderr)
                    return EXIT_DISAGREE
            memos = install_cache(entries)
        payload, code = _DISPATCH[args.command](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREE

    if config.cache_path and memos is not None:
        append_new_entries(config.cache_path, memos)
    hits = sum(memo.hits for memo in memos.values()) if memos else 0
    record = OutputRecord(
        payload=payload,
        wall_time_s=time.monotonic() - started,
        cache_hits=hits,
        csv_lines=payload.get("csv"),
    )
    record.emit()
    return code
