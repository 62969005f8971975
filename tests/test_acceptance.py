"""Acceptance gate: eleven criteria, one pass/fail line each.

Each test prints a single summary line on success; a failure surfaces
as the usual pytest assertion with the counterexample in the message.
Stated wall-clock budgets are asserted too, with the suite run cold or
warm (memoization may only help, never change values).
"""

import json
import subprocess
import sys
import time

from mldeg.checks import run_suite
from mldeg.degrees import phi_sym
from mldeg.exact import binom
from mldeg.lascoux import psi, psi_pascal, psi_recursion
from mldeg.poly_n import phi_poly
from mldeg.schur_oracle import psi_oracle

WORKED = (((0, 2), 3), ((0, 3), 7), ((1, 2), 3), ((1, 3), 10), ((2, 3), 10))


def _suite_ok(name, budget, **caps):
    t0 = time.monotonic()
    results, failures = run_suite(name, **caps)
    elapsed = time.monotonic() - t0
    assert not failures, (
        f"suite {name} failed {len(failures)}/{len(results)} tasks; first: "
        + "; ".join(f"{f['task']}: {f['detail']}" for f in failures[:3])
    )
    assert elapsed < budget, f"suite {name} took {elapsed:.1f}s, budget {budget}s"
    return len(results), elapsed


def test_criterion_01_worked_coefficients_all_paths():
    t0 = time.monotonic()
    for I, expected in WORKED:
        for route in (psi, psi_pascal, psi_recursion, psi_oracle):
            got = route(I)
            assert got == expected, f"{route.__name__}{I} = {got}, want {expected}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS - 5 worked coefficients on 4 paths ({elapsed:.2f}s)")


def test_criterion_02_conic_counts():
    t0 = time.monotonic()
    values = tuple(phi_sym(3, d) for d in range(1, 7))
    assert values[:3] == (1, 2, 4)
    assert values == (1, 2, 4, 4, 2, 1)
    assert values == values[::-1], "extension is not self-dual"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS - phi(3,1..6) = {values} ({elapsed:.2f}s)")


def test_criterion_03_closed_form_equality_full_range():
    from mldeg.degrees import delta_direct_info, delta_nrs_info

    t0 = time.monotonic()
    checked = 0
    for n in range(2, 8):
        for s in range(1, n):
            for m in range(1, binom(n + 1, 2) + 1):
                direct = delta_direct_info("sym", m, n, n - s)[0]
                closed = delta_nrs_info("sym", m, n, n - s)[0]
                assert direct == closed, (
                    f"(m={m}, n={n}, s={s}): direct {direct}, closed {closed}"
                )
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 3: PASS - {checked} closed-form equalities, n <= 7 ({elapsed:.1f}s)")


def test_criterion_04_duality_full_range():
    from mldeg.degrees import delta_direct_info

    t0 = time.monotonic()
    checked = 0
    for n in range(2, 8):
        top = binom(n + 1, 2)
        for s in range(1, n):
            for m in range(0, top + 1):
                left = delta_direct_info("sym", m, n, n - s)[0]
                right = delta_direct_info("sym", top - m, n, s)[0]
                assert left == right, f"(m={m}, n={n}, s={s}): {left} vs {right}"
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 4: PASS - {checked} duality equalities, n <= 7 ({elapsed:.1f}s)")


def test_criterion_05_vanishing_windows():
    count, elapsed = _suite_ok("pataki", 120.0)
    print(f"criterion 5: PASS - {count} window checks, zero outside, nonzero ends ({elapsed:.1f}s)")


def test_criterion_06_degree_and_leading_coefficient():
    count, elapsed = _suite_ok("leading", 60.0, sum_max=9)
    print(f"criterion 6: PASS - {count} polynomial fits, degree and lead exact ({elapsed:.1f}s)")


def test_criterion_07_transform_identities():
    n1, t1 = _suite_ok("b-identity", 120.0)
    n2, t2 = _suite_ok("d-identity", 120.0)
    assert t1 + t2 < 120.0
    print(f"criterion 7: PASS - {n1} exact and {n2} pointwise transforms ({t1 + t2:.1f}s)")


def test_criterion_08_square_family():
    n1, t1 = _suite_ok("da-paths", 300.0)
    n2, t2 = _suite_ok("nrs-a", 300.0)
    n3, t3 = _suite_ok("conormal", 300.0)
    total = t1 + t2 + t3
    assert total < 300.0
    print(f"criterion 8: PASS - {n1} entry pairs, {n2} closed forms, "
          f"{n3} symmetries ({total:.1f}s)")


def test_criterion_09_skew_family():
    n1, t1 = _suite_ok("alpha-paths", 300.0)
    n2, t2 = _suite_ok("nrs-d", 300.0)
    n3, t3 = _suite_ok("quasi-d", 300.0)
    total = t1 + t2 + t3
    assert total < 300.0
    print(f"criterion 9: PASS - {n1} coefficient pairs, {n2} closed forms, "
          f"{n3} parity branches ({total:.1f}s)")


def test_criterion_10_phi_polynomials_and_regression():
    t0 = time.monotonic()
    for d in range(1, 9):
        poly = phi_poly("sym", d)
        assert len(poly) == d, f"phi poly degree at d={d}: {len(poly) - 1}"
        for n in range(1, d + 5):
            assert poly(n) == phi_sym(n, d), f"phi poly miss at (n={n}, d={d})"
    pinned = phi_sym(4, 10)
    assert pinned == 1, f"phi(4,10) regressed: {pinned}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"criterion 10: PASS - phi polynomials d <= 8, phi(4,10) = {pinned} ({elapsed:.1f}s)")


def test_criterion_11_worker_count_invariance():
    t0 = time.monotonic()
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "mldeg", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for argv in (
        ("check", "duality", "--nmax", "5"),
        ("check", "nrs-sym", "--nmax", "5"),
        ("delta", "--type", "sym", "-m", "10", "-n", "5", "-r", "2", "--path", "both"),
    ):
        serial = cli(*argv, "--jobs", "1")
        parallel = cli(*argv, "--jobs", "4")
        assert serial == parallel, f"output differs across worker counts: {argv}"
        json.loads(serial)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 11: PASS - byte-identical JSON at 1 and 4 workers ({elapsed:.1f}s)")
