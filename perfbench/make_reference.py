"""Build reference.json: the answer to every query the generators can draw.

Each answer is computed by two independent routes and written only
when they agree:

  psi family        Pfaffian route vs lift/shift recursion
  alpha family      recursion vs Schur oracle
  two-set family    shifted Pascal determinant vs recursion
  complements       complement route vs recursion (oracle for alpha)
  delta             direct sum vs closed form
  phi values        direct sum vs closed form (a, d) or vs a direct sum
                    over recursion-route coefficients (sym, whose closed
                    form is too slow at the sweep sizes)
  phi polynomials   interpolated fit vs second-route values at d + 5 points
  check suites      the suite's own cross-checks, run at --jobs 1

Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.setrecursionlimit(100000)

from mldeg import checks  # noqa: E402
from mldeg.degrees import (  # noqa: E402
    delta_direct_info,
    delta_nrs_info,
    delta_sym_items,
    phi_value,
)
from mldeg.exact import binom  # noqa: E402
from mldeg.indexsets import complement  # noqa: E402
from mldeg.lascoux import (  # noqa: E402
    alpha,
    alpha_complement,
    d_a,
    d_a_complement,
    d_a_recursion,
    psi,
    psi_complement,
    psi_recursion,
)
from mldeg.poly_n import phi_poly  # noqa: E402
from mldeg.schur_oracle import alpha_oracle  # noqa: E402

import workloads  # noqa: E402

OUT = HERE / "reference.json"


class Disagreement(Exception):
    pass


def agree(key, first, second):
    if first != second:
        raise Disagreement(f"{key}: routes disagree, {first!r} vs {second!r}")
    return first


def parse_set(text):
    body = text.strip("{}")
    return tuple(int(x) for x in body.split(",")) if body else ()


def render(value):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _phi_second(kind, n, d):
    """phi(n, d) by a route independent of phi_value's."""
    total = 0
    if kind == "sym":
        for s in range(1, n + 1):
            if binom(s + 1, 2) > d:
                break
            total += s * sum(psi_recursion(I) * psi_recursion(complement(I, n))
                             for I in delta_sym_items(d, n, n - s))
    else:
        for s in range(1, n + 1):
            if kind == "d" and binom(s, 2) > d:
                break
            total += s * delta_nrs_info(kind, d, n, n - s)[0]
    if total % n:
        raise Disagreement(f"phi second route: {total} not divisible by {n}")
    return total // n


_poly_memo = {}


def _checked_poly(kind, d):
    if (kind, d) not in _poly_memo:
        poly = phi_poly(kind, d)
        for n in range(1, d + 6):
            agree(f"poly {kind} {d} at n={n}", poly(n), _phi_second(kind, n, d))
        _poly_memo[kind, d] = poly.coeffs
    return _poly_memo[kind, d]


def answer(key):
    words = key.split()
    head = words[0]
    if head == "psi":
        family, I = words[1], parse_set(words[2])
        J = parse_set(words[3]) if family == "d" else None
        if "complement" in words:
            N = int(words[-1])
            if family == "psi":
                value = agree(key, psi_complement(I, N),
                              psi_recursion(complement(I, N)))
            elif family == "alpha":
                value = agree(key, alpha_complement(I, N),
                              alpha_oracle(complement(I, N)))
            else:
                value = agree(key, d_a_complement(I, J, N),
                              d_a_recursion(complement(I, N), complement(J, N)))
        elif family == "psi":
            value = agree(key, psi(I), psi_recursion(I))
        elif family == "alpha":
            value = agree(key, alpha(I), alpha_oracle(I))
        else:
            value = agree(key, d_a(I, J), d_a_recursion(I, J))
        return {"result": value}
    if head == "delta":
        kind, m, n, r = words[1], *map(int, words[2:])
        return {"result": agree(key, delta_direct_info(kind, m, n, r)[0],
                                delta_nrs_info(kind, m, n, r)[0])}
    if head == "phi":
        kind, n, d = words[1], int(words[2]), int(words[3])
        return {"result": agree(key, phi_value(kind, n, d), _phi_second(kind, n, d))}
    if head == "poly":
        kind, d = words[1], int(words[2])
        return {"result": [render(c) for c in _checked_poly(kind, d)]}
    if head == "table":
        kind, dmax = words[1], int(words[2])
        lines = ["d," + ",".join(f"coeff_{k}" for k in range(dmax))]
        for d in range(1, dmax + 1):
            cells = [str(render(c)) for c in _checked_poly(kind, d)]
            lines.append(f"{d}," + ",".join(cells + ["0"] * (dmax - len(cells))))
        return {"csv": lines}
    if head == "check":
        nmax = int(words[2].split("=")[1]) if len(words) > 2 else None
        results, failures = checks.run_suite(words[1], nmax=nmax, jobs=1)
        if failures:
            raise Disagreement(f"{key}: suite failed: {failures[0]['detail']}")
        return {"failures": [], "ok": True, "tasks": len(results)}
    raise ValueError(f"unknown reference key {key!r}")


def main():
    started = time.monotonic()
    keys = workloads.reference_space()
    table = {}
    for k, key in enumerate(keys):
        table[key] = answer(key)
        if k % 250 == 0:
            print(f"{k}/{len(keys)} {time.monotonic() - started:.1f}s", file=sys.stderr)
    lines = [f"{json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
             for key in keys]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} answers to {OUT} in "
          f"{time.monotonic() - started:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
