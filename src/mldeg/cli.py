"""Command line front end.

Queries print one JSON object to stdout (sorted keys, rationals as
"p/q" strings), and phi --table prints CSV lines, so reruns and worker
counts can be compared byte for byte; the wall time goes to stderr
only.  Exit codes: 0 success, 1 a checked property failed, 2 usage,
3 two formula paths disagreed on the same query.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from . import checks
from .degrees import (
    ambient_dim,
    canonical_type,
    delta_direct_info,
    delta_nrs_info,
    phi_value,
)
from .exact import ConsistencyError
from .indexsets import check_indexset, format_indexset, partition_weight
from .poly_n import phi_poly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3

# Query size caps; computations past these are possible but slow, so
# the command layer refuses them unless --unsafe-range is passed.  The
# library itself never enforces them.
_N_CAP = {"sym": 7, "a": 4, "d": 4}
_D_CAP = 12
# psi: elements of each set (and --complement), the largest element of
# each set, and for a check route the weight |lambda(I)| (+ |lambda(J)|)
# that its cost grows with.  The oracle's cost grows with the number of
# elements as well, so it has a cap on the elements of all its sets
# together.  Twenty elements just below the element cap take under a
# second on the fast path (2-core VM).
_SET_CAP = 20
_ELEMENT_CAP = 400
_WEIGHT_CAP = 20
_ORACLE_CAP = 6
# check: --nmax and --sum-max, the largest default any suite reads; the
# suite builders list every task before the first one runs.
_CHECK_CAP = 8
# The routes psi --path can pick, in the order checks.ROUTES first
# names them; checks.COMPLEMENTS stands behind --complement.
_PSI_PATHS = tuple(dict.fromkeys(path for _, path in checks.ROUTES))


class UsageError(Exception):
    pass


# ------------------------------------------------------------------ parsing

def parse_set(text):
    """Index set from '{0,3}' or '0,3'; '{}' and '' are the empty set.
    Each entry is ASCII digits, spaces around it aside, and
    check_indexset judges the entries."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return ()
    parts = (part.strip() for part in body.split(","))
    try:
        return check_indexset(int(p) if p.isascii() and p.isdigit() else p
                              for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad index set {text!r}: {exc}") from None


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--unsafe-range", action="store_true",
                        help="lift the default size caps")
    pooled = argparse.ArgumentParser(add_help=False, parents=[common])
    pooled.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fork N workers for work left after a short serial "
                             "start; output does not depend on N")

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
    p.add_argument("--path", default=None, choices=_PSI_PATHS)

    p = sub.add_parser("delta", parents=[pooled],
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

    p = sub.add_parser("check", parents=[pooled],
                       help="run a named invariant suite")
    p.add_argument("suite", choices=checks.suite_names())
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--sum-max", type=int, default=None, dest="sum_max")

    return parser


# ----------------------------------------------------------------- commands

def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _require_cap(args, label, value, cap=_D_CAP, kind=None):
    """Refuse a size past its default cap unless --unsafe-range lifts
    the caps; kind names the type an n cap belongs to."""
    where = "" if kind is None else f" for type {kind!r}"
    _require(args.unsafe_range or value <= cap,
             f"{label}={value} is past the default cap{where} "
             f"(pass --unsafe-range to lift)")


def _jobs(args):
    _require(args.jobs >= 1, "--jobs needs N >= 1")
    return args.jobs


def _kind(args):
    try:
        return canonical_type(args.matrix_type)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_psi(args):
    family = args.family
    _require(args.pair is None or family == "d",
             "--pair only applies to the two-set family")
    _require(args.pair is not None or family != "d", "two-set family needs --pair")
    sets = tuple(parse_set(text) for text in (args.set_, args.pair) if text is not None)
    for label, S in zip(("--set", "--pair"), sets):
        _require_cap(args, f"{label} size", len(S), _SET_CAP)
        _require_cap(args, f"largest {label} element", max(S, default=0), _ELEMENT_CAP)

    query = {"family": family, "set": format_indexset(sets[0])}
    if family == "d":
        query["pair"] = format_indexset(sets[1])

    if args.complement is not None:
        _require(args.path is None, "--path does not combine with --complement")
        n = args.complement
        _require(n >= 0, "--complement needs a nonnegative size")
        _require_cap(args, "--complement", n, _SET_CAP)
        query["complement"] = n
        value = checks.COMPLEMENTS[family](*sets, n)
        return {"query": query, "result": value, "path": "complement"}, EXIT_OK

    path = args.path or checks.FAST_PATH[family]
    _require((family, path) in checks.ROUTES, f"{family!r} family has no {path!r} path")
    if path != checks.FAST_PATH[family]:
        weight = sum(partition_weight(S) for S in sets)
        _require_cap(args, "weight", weight, _WEIGHT_CAP)
    if path == "oracle":
        _require_cap(args, "oracle elements", sum(map(len, sets)), _ORACLE_CAP)
    refusal = checks.route_refusal(family, path, sets)
    _require(refusal is None, refusal)
    value = checks.ROUTES[(family, path)](*sets)
    return {"query": query, "result": value, "path": path}, EXIT_OK


def cmd_delta(args):
    kind = _kind(args)
    jobs = _jobs(args)
    m, n, r = args.m, args.n, args.r
    _require(n >= 1, "need n >= 1")
    _require(0 <= r <= n, "need 0 <= r <= n")
    _require(m >= 0, "need m >= 0")
    _require_cap(args, "n", n, _N_CAP[kind], kind)
    _require_cap(args, "m", m, ambient_dim(kind, n), kind)
    path = args.path
    if path in ("nrs", "both"):
        _require(m >= 1, "closed form needs m >= 1")
        _require(r < n, "closed form needs rank below n")

    query = {"family": "delta", "m": m, "n": n, "r": r, "type": kind}
    paths = {}
    values = {}
    if path in ("direct", "both"):
        values["direct"], terms = delta_direct_info(kind, m, n, r, jobs)
        paths["direct"] = {"terms": terms, "value": values["direct"]}
    if path in ("nrs", "both"):
        values["nrs"], terms = delta_nrs_info(kind, m, n, r, jobs)
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


def cmd_phi(args):
    kind = _kind(args)

    if args.table is not None:
        _require(not args.poly and args.n is None and args.d is None,
                 "--table does not combine with -n, -d or --poly")
        dmax = args.table
        _require(dmax >= 1, "--table needs DMAX >= 1")
        _require_cap(args, "DMAX", dmax)
        header = "d," + ",".join(f"coeff_{k}" for k in range(dmax))
        lines = [header]
        for d in range(1, dmax + 1):
            cells = [str(c) for c in phi_poly(kind, d)]
            cells += ["0"] * (dmax - len(cells))
            lines.append(str(d) + "," + ",".join(cells))
        return {"csv": lines}, EXIT_OK

    if args.poly:
        _require(args.d is not None, "--poly needs -d")
        _require(args.n is None, "--poly does not take -n")
        d = args.d
        _require(d >= 1, "need d >= 1")
        _require_cap(args, "d", d)
        coeffs = [int(c) if c.denominator == 1 else str(c) for c in phi_poly(kind, d)]
        query = {"d": d, "family": "phi", "poly": True, "type": kind}
        return {"query": query, "result": coeffs}, EXIT_OK

    _require(args.n is not None and args.d is not None,
             "value query needs both -n and -d")
    n, d = args.n, args.d
    _require(n >= 1 and d >= 1, "need n >= 1 and d >= 1")
    _require_cap(args, "n", n, _N_CAP[kind], kind)
    _require_cap(args, "d", d)
    value = phi_value(kind, n, d)
    query = {"d": d, "family": "phi", "n": n, "type": kind}
    return {"query": query, "result": value}, EXIT_OK


def cmd_check(args):
    jobs = _jobs(args)
    for flag, value in (("--nmax", args.nmax), ("--sum-max", args.sum_max)):
        if value is not None:
            _require(value >= 0, f"{flag} needs a nonnegative value")
            _require_cap(args, flag, value, _CHECK_CAP)
    results, failures = checks.run_suite(
        args.suite, nmax=args.nmax, sum_max=args.sum_max, jobs=jobs
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
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        payload, code = _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREE

    # Results are exact ints of any size, so the output lifts CPython's
    # int-to-str digit limit; the input keeps it, so an over-long literal
    # stays a usage error.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        print("\n".join(payload["csv"]) if "csv" in payload
              else json.dumps(payload, sort_keys=True))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(f"wall_time_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return code


def run():
    """The console entry: main's exit code, returned after every object
    left is frozen, so that the collector's passes at interpreter
    shutdown skip them.  main itself never freezes, as tests and
    library users call it in process."""
    code = main()
    gc.freeze()
    return code
