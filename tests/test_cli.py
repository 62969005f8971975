"""Command line contract: exit codes, JSON shape, worker counts."""

import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mldeg import checks, degrees
from mldeg.cli import UsageError, build_parser, main, parse_set, run
from mldeg.indexsets import format_indexset


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mldeg", *argv],
        capture_output=True, text=True, env=env,
    )


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_set():
    assert parse_set("{0,3}") == (0, 3)
    assert parse_set("0,3") == (0, 3)
    assert parse_set("{}") == ()
    assert parse_set("") == ()
    assert parse_set("{ 2 , 5 }") == (2, 5)
    for I in ((), (0,), (0, 2, 5), (1, 3, 4, 10)):
        assert parse_set(format_indexset(I)) == I
    for bad in ("{0,0}", "{-1}", "{a}", "0;1", "{3,1}", "{1,-2}",
                "{1_0}", "{+3}", "{\u0663}", "{3,\uff15}", "{0x1}", "{1 0}", "{3,}"):
        with pytest.raises(UsageError):
            parse_set(bad)


def test_bad_set_is_usage_error_under_optimize():
    for text in ("{3,1}", "{-1}"):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "mldeg", "psi", "--set", text],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, (text, proc.stderr)
        assert not proc.stdout
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_psi_basic(capsys):
    code, out, err = run_main(capsys, "psi", "--set", "{0,3}")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == 7
    assert data["path"] == "pfaffian"
    assert "wall_time_s=" in err

    code, out, _ = run_main(capsys, "psi", "--set", "{0,3}", "--path", "oracle")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == 7 and data["path"] == "oracle"

    code, out, _ = run_main(capsys, "psi", "--set", "{}")
    assert code == 0 and json.loads(out)["result"] == 1


def test_psi_families(capsys):
    code, out, _ = run_main(capsys, "psi", "--set", "{1,2}", "--family", "alpha")
    assert code == 0 and json.loads(out)["result"] == 1

    code, out, _ = run_main(
        capsys, "psi", "--set", "{0,3}", "--family", "d", "--pair", "{1,2}")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == 6 and data["path"] == "pascal"

    for path in ("recursion", "oracle"):
        code, out, _ = run_main(
            capsys, "psi", "--set", "{0,3}", "--family", "d",
            "--pair", "{1,2}", "--path", path)
        assert code == 0 and json.loads(out)["result"] == 6

    code, out, _ = run_main(capsys, "psi", "--set", "{1,3}", "--complement", "5")
    assert code == 0 and json.loads(out)["result"] == 23


def test_one_route_table_drives_psi_and_path_suites(capsys, monkeypatch):
    # A route swapped in checks.ROUTES must reach both the psi command
    # and the family's *-paths task: neither keeps its own list.
    sentinel = -424242
    I, J = (0, 3), (1, 2)
    sets = {"psi": (I,), "alpha": (I,), "d": (I, J)}
    routes = list(checks.ROUTES)
    assert {family for family, _ in routes} == set(sets)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for a in subparsers.choices["psi"]._actions if a.dest == "path")
    assert choices == ("pfaffian", "pascal", "recursion", "oracle")
    assert choices == tuple(dict.fromkeys(path for _, path in routes))
    for family, path in routes:
        with monkeypatch.context() as patch:
            patch.setitem(checks.ROUTES, (family, path), lambda *sets: sentinel)
            argv = ["psi", "--family", family, "--set", format_indexset(I), "--path", path]
            if family == "d":
                argv += ["--pair", format_indexset(J)]
            code, out, _ = run_main(capsys, *argv)
            assert code == 0 and json.loads(out)["result"] == sentinel, (family, path)
            result = checks.run_task((checks.routes_line, family, *sets[family]))
        assert not result["ok"] and path in result["detail"], (family, path, result)


def test_complements_have_a_table_of_their_own(capsys, monkeypatch):
    # Every route takes the family's sets alone; the complement takes n
    # as well, and psi --complement reads it from checks.COMPLEMENTS.
    families = {"psi": ((1, 3),), "alpha": ((0, 2),), "d": ((1,), (2,))}
    assert set(checks.COMPLEMENTS) == set(checks.FAST_PATH) == set(families)
    assert {family for family, _ in checks.ROUTES} == set(families)
    for (family, path), fn in checks.ROUTES.items():
        fast = checks.ROUTES[family, checks.FAST_PATH[family]]
        assert fn not in checks.COMPLEMENTS.values(), (family, path)
        assert fn(*families[family]) == fast(*families[family]), (family, path)
    for family, sets in families.items():
        argv = ["psi", "--family", family, "--set", format_indexset(sets[0]),
                "--complement", "5"]
        if family == "d":
            argv += ["--pair", format_indexset(sets[1])]
        code, out, _ = run_main(capsys, *argv)
        assert code == 0 and json.loads(out)["result"] == checks.COMPLEMENTS[family](*sets, 5)
        with monkeypatch.context() as patch:
            patch.setitem(checks.COMPLEMENTS, family, lambda *args: (args[:-1], args[-1]))
            code, out, _ = run_main(capsys, *argv)
        data = json.loads(out)
        assert code == 0 and data["path"] == "complement", family
        assert data["result"] == [[list(S) for S in sets], 5], family


def test_deep_set_exits_0():
    # Fresh processes: the Pfaffian of {0,5000} is one pair value, and
    # the box sum of the recursion route walks 5000 cold sets.  The
    # oracle route fills the 1100 places of {0..1099}, past the recursion
    # limit, with one alternant term.  Both are past the element caps, so
    # all pass --unsafe-range.
    staircase = "{" + ",".join(map(str, range(1100))) + "}"
    for argv in (["--family", "alpha", "--set", "{0,5000}"],
                 ["--family", "alpha", "--set", "{0,5000}", "--path", "recursion"],
                 ["--set", staircase, "--path", "oracle"],
                 ["--family", "alpha", "--set", staircase, "--path", "oracle"],
                 ["--family", "d", "--set", staircase, "--pair", staircase,
                  "--path", "oracle"]):
        proc = run_cli("psi", *argv, "--unsafe-range")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, (argv[:2], proc.stderr)
        assert json.loads(proc.stdout)["result"] == 1


def test_long_set_on_the_recursion_route_never_ends_in_a_traceback():
    # Fresh processes: the recursion nests about three frames per element,
    # so 400 elements would pass the recursion limit; the route refuses
    # them as usage, and answers a set within its element bound.
    for length, code in ((400, 2), (250, 0)):
        text = "{" + ",".join(map(str, range(length))) + "}"
        for argv in (["--set", text], ["--family", "alpha", "--set", text],
                     ["--family", "d", "--set", text, "--pair", text]):
            proc = run_cli("psi", *argv, "--path", "recursion", "--unsafe-range")
            assert proc.returncode == code, (length, argv[:2], proc.stderr)
            assert "Traceback" not in proc.stderr, proc.stderr
            if code:
                lines = proc.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
            else:
                assert json.loads(proc.stdout)["result"] == 1


def test_skew_at_large_n_exits_0():
    # Fresh processes: the skew complement is a Pfaffian over the labels
    # of its set, so neither its cost nor its stack depth grows with n.
    for argv, value in [
        (["phi", "--type", "d", "-n", "200", "-d", "4"], 7880599),
        (["psi", "--family", "alpha", "--set", "{0,1}", "--complement", "400"], 200),
        (["delta", "--type", "d", "-m", "4", "-n", "200", "-r", "199", "--path", "both"],
         1576119800),
        (["psi", "--family", "alpha", "--set", "{300,350}", "--complement", "400"], None),
    ]:
        proc = run_cli(*argv, "--unsafe-range")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, (argv, proc.stderr)
        data = json.loads(proc.stdout)
        if value is not None:
            assert data["result"] == value, argv
        if argv[0] == "delta":
            assert {path["value"] for path in data["paths"].values()} == {value}


def test_alpha_pfaffian_takes_large_sets(capsys):
    spread = "{" + ",".join(map(str, range(0, 40, 2))) + "}"
    for text in ("{0,100,200,300}", spread):
        code, out, _ = run_main(capsys, "psi", "--family", "alpha", "--set", text)
        assert code == 0 and json.loads(out)["path"] == "pfaffian", text
    # The box walk of the same set is a check route under the weight cap.
    code, out, err = run_main(capsys, "psi", "--family", "alpha", "--set", spread,
                              "--path", "recursion")
    assert code == 2 and not out and "weight" in err


def test_oracle_caps_its_elements(capsys):
    seven = "{0,1,2,3,4,5,6}"
    code, out, err = run_main(capsys, "psi", "--set", seven, "--path", "oracle")
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--unsafe-range" in lines[0]
    for argv in (["--set", "{0,1,2,3,4,5}"], ["--family", "d", "--set", "{0,1,2}",
                                              "--pair", "{0,1,2}"]):
        assert run_main(capsys, "psi", *argv, "--path", "oracle")[0] == 0, argv
    code, out, _ = run_main(capsys, "psi", "--set", seven, "--path", "oracle",
                            "--unsafe-range")
    assert code == 0 and json.loads(out)["result"] == 1


def test_psi_caps(capsys):
    # Each of these runs for seconds to minutes; the caps refuse them.
    slow = [
        ["--set", "{" + ",".join(map(str, range(400))) + "}"],
        ["--family", "d", "--path", "recursion", "--set", "{900}", "--pair", "{900}"],
        ["--path", "pascal", "--set", "{0,5,9,14,30,41}"],
        ["--set", "{}", "--complement", "400"],
        ["--set", "{1,100000}"],
        ["--set", "{1000000}"],
        ["--family", "d", "--set", "{0}", "--pair", "{1000000}"],
    ]
    for argv in slow:
        code, out, err = run_main(capsys, "psi", *argv)
        assert code == 2 and not out, argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "--unsafe-range" in lines[0]
    # One past a cap is refused, and --unsafe-range lifts it.
    for argv, under in [
        (["--set", "{" + ",".join(map(str, range(21))) + "}"], ["--set", "{0}"]),
        (["--path", "pascal", "--set", "{0,22}"], ["--path", "pascal", "--set", "{0,21}"]),
        (["--family", "d", "--path", "oracle", "--set", "{11}", "--pair", "{10}"],
         ["--family", "d", "--path", "oracle", "--set", "{10}", "--pair", "{10}"]),
        (["--set", "{0}", "--complement", "21"], ["--set", "{0}", "--complement", "20"]),
        (["--set", "{0,401}"], ["--set", "{0,400}"]),
        (["--family", "d", "--set", "{1}", "--pair", "{401}"],
         ["--family", "d", "--set", "{1}", "--pair", "{400}"]),
    ]:
        assert run_main(capsys, "psi", *under)[0] == 0, under
        assert run_main(capsys, "psi", *argv)[0] == 2, argv
        code, out, _ = run_main(capsys, "psi", *argv, "--unsafe-range")
        assert code == 0 and "result" in json.loads(out), argv


def test_usage_errors(capsys):
    bad_calls = [
        ("psi", "--set", "{0,0}"),
        ("psi", "--set", "{0}", "--pair", "{1}"),
        ("psi", "--set", "{0}", "--family", "d"),
        ("psi", "--set", "{1}", "--family", "alpha", "--path", "pascal"),
        ("psi", "--set", "{1}", "--complement", "4", "--path", "oracle"),
        ("delta", "--type", "sym", "-m", "2", "-n", "3", "-r", "4"),
        ("delta", "--type", "sym", "-m", "2", "-n", "3", "-r", "3", "--path", "nrs"),
        ("delta", "--type", "sym", "-m", "0", "-n", "3", "-r", "1", "--path", "nrs"),
        ("delta", "--type", "hermitian", "-m", "1", "-n", "2", "-r", "1"),
        ("delta", "--type", "sym", "-m", "2", "-n", "9", "-r", "8"),
        ("delta", "--type", "a", "-m", "2", "-n", "5", "-r", "4"),
        ("phi", "--poly"),
        ("phi", "-n", "3"),
        ("phi", "--poly", "-d", "13"),
        ("phi", "--table", "0"),
        ("check", "worked", "--jobs", "0"),
        ("delta", "-m", "2", "-n", "3", "-r", "2", "--jobs", "-1"),
        ("check", "duality", "--nmax", "-3"),
        ("check", "leading", "--sum-max", "-1"),
    ]
    for argv in bad_calls:
        code, out, err = run_main(capsys, *argv)
        assert code == 2, f"{argv} exited {code}"
        assert not out


def test_delta_examples(capsys):
    code, out, _ = run_main(
        capsys, "delta", "--type", "sym", "-m", "2", "-n", "3", "-r", "2",
        "--path", "both")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == 6
    assert data["paths"]["direct"]["terms"] == 1
    assert data["paths"]["nrs"]["terms"] == 2

    code, out, _ = run_main(
        capsys, "delta", "--type", "sym", "-m", "6", "-n", "3", "-r", "0")
    assert code == 0 and json.loads(out)["result"] == 1

    code, out, _ = run_main(
        capsys, "delta", "--type", "sym", "-m", "1", "-n", "5", "-r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == 0 and data["paths"]["direct"]["terms"] == 0

    # Closed form extends to full corank (rank 0), not past it.
    code, out, _ = run_main(
        capsys, "delta", "--type", "sym", "-m", "3", "-n", "2", "-r", "0",
        "--path", "nrs")
    assert code == 0 and json.loads(out)["result"] == 1


def test_delta_unsafe_range(capsys):
    code, _, _ = run_main(
        capsys, "delta", "--type", "sym", "-m", "2", "-n", "9", "-r", "8")
    assert code == 2
    code, out, _ = run_main(
        capsys, "delta", "--type", "sym", "-m", "2", "-n", "9", "-r", "8",
        "--unsafe-range")
    assert code == 0 and json.loads(out)["result"] == 72


def test_delta_caps_m_at_the_matrix_space(capsys):
    # No m-dimensional pencil of 7x7 symmetric matrices exists past
    # m = w(7) = 28, where the closed form would only sum its way to 0.
    proc = run_cli("delta", "--type", "sym", "-m", "60", "-n", "7", "-r", "3",
                   "--path", "nrs")
    assert proc.returncode == 2 and not proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: m=60 is past the default cap")
    base = ("delta", "--type", "sym", "-n", "7", "-r", "3", "--path", "nrs")
    assert run_main(capsys, *base, "-m", "28")[0] == 0
    code, out, _ = run_main(capsys, *base, "-m", "29", "--unsafe-range")
    assert code == 0 and json.loads(out)["result"] == 0


def test_delta_disagreement_exits_3(capsys, monkeypatch):
    # The closed form divides its total by 2^m.
    monkeypatch.setitem(
        degrees.TYPE_TABLE, ("sym", "nrs_partial"), lambda n, items: 999 * 2 ** 2)
    code, out, err = run_main(
        capsys, "delta", "--type", "sym", "-m", "2", "-n", "3", "-r", "2",
        "--path", "both")
    assert code == 3
    assert "disagreement" in err
    data = json.loads(out)
    assert data["result"] is None
    assert data["paths"]["direct"]["value"] == 6
    assert data["paths"]["nrs"]["value"] == 999


def test_delta_non_integer_closed_form_exits_3(capsys, monkeypatch):
    monkeypatch.setitem(
        degrees.TYPE_TABLE, ("sym", "nrs_partial"), lambda n, items: Fraction(1, 2))
    code, out, err = run_main(
        capsys, "delta", "--type", "sym", "-m", "2", "-n", "3", "-r", "2",
        "--path", "nrs")
    assert code == 3 and not out
    assert "not an integer" in err


@pytest.mark.parametrize("kind, name, m, n, r", [("sym", "b_value", 6, 4, 2),
                                                  ("d", "d_value", 14, 4, 2)])
def test_closed_form_term_off_by_a_power_of_two_exits_3(capsys, monkeypatch,
                                                        kind, name, m, n, r):
    # One int Q value at a term of weight 1, where the sum of the set is
    # the top, m - #I for sym and m for skew, gains 1: its specialization
    # is off by 2^-(top + #I), and the one division of the total leaves a
    # remainder.
    top = {"sym": m - (n - r), "d": m}[kind]
    factor = getattr(degrees, name)
    shifted = []

    def one_term_off(I, k):
        value = factor(I, k)
        if not shifted and sum(I) == top:
            shifted.append(I)
            value += 1
        return value

    monkeypatch.setattr(degrees, name, one_term_off)
    code, out, err = run_main(capsys, "delta", "--type", kind, "-m", str(m), "-n", str(n),
                              "-r", str(r), "--path", "nrs")
    assert shifted and code == 3 and not out
    assert "not an integer" in err


def test_phi_examples(capsys):
    code, out, _ = run_main(capsys, "phi", "--type", "sym", "-n", "3", "-d", "3")
    assert code == 0 and json.loads(out)["result"] == 4

    code, out, _ = run_main(capsys, "phi", "--poly", "-d", "2")
    assert code == 0 and json.loads(out)["result"] == [-1, 1]

    code, out, _ = run_main(capsys, "phi", "--poly", "-d", "1")
    assert code == 0 and json.loads(out)["result"] == [1]

    code, out, _ = run_main(capsys, "phi", "--poly", "-d", "4")
    assert code == 0
    assert json.loads(out)["result"] == [-1, "19/6", -3, "5/6"]


def test_phi_at_large_n(capsys):
    for kind in ("sym", "a"):
        code, out, _ = run_main(capsys, "phi", "--type", kind, "-n", "200", "-d", "3",
                                "--unsafe-range")
        assert code == 0 and json.loads(out)["result"] == 39601, kind


def test_phi_table(capsys):
    code, out, _ = run_main(capsys, "phi", "--table", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,coeff_0,coeff_1,coeff_2"
    assert lines[1] == "1,1,0,0"
    assert lines[2] == "2,-1,1,0"
    assert lines[3] == "3,1,-2,1"
    assert len(lines) == 4

    # Rational cells print as p/q with the sign on p.
    for kind, row in (("sym", "5,1,-14/3,77/12,-10/3,7/12"), ("a", "5,1,-4,73/12,-4,11/12")):
        code, out, _ = run_main(capsys, "phi", "--type", kind, "--table", "5")
        assert code == 0 and out.splitlines()[5] == row, kind


def test_check_pass_and_fail(capsys, monkeypatch):
    code, out, _ = run_main(capsys, "check", "worked")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["tasks"] == 5 and data["failures"] == []

    monkeypatch.setitem(
        checks._SUITES, "worked",
        lambda nmax, sum_max: [(checks.phi_anchor, 3, 2, 999)])
    code, out, _ = run_main(capsys, "check", "worked")
    assert code == 1
    data = json.loads(out)
    assert not data["ok"]
    assert data["failures"][0]["task"] == "phi_anchor 3 2 999"
    assert "999" in data["failures"][0]["detail"]


def test_check_respects_caps(capsys):
    code, out, _ = run_main(capsys, "check", "duality", "--nmax", "3")
    assert code == 0
    assert json.loads(out)["tasks"] == 3


def test_check_caps_refuse_before_any_task(capsys, monkeypatch):
    # the suite builders list every task up front, so a cap past the
    # largest default is refused before a suite is built
    def refuse(*args, **kwargs):
        raise AssertionError("a suite was built past its cap")

    with monkeypatch.context() as patch:
        patch.setattr(checks, "run_suite", refuse)
        for argv in (("check", "da-paths", "--nmax", "9"),
                     ("check", "leading", "--sum-max", "9"),
                     ("check", "all", "--nmax", "8", "--sum-max", "100")):
            code, out, err = run_main(capsys, *argv)
            assert code == 2 and not out, argv
            errors = err.splitlines()
            assert len(errors) == 1 and errors[0].startswith("error: "), errors
            assert "--unsafe-range" in errors[0]
    code, out, _ = run_main(capsys, "check", "psi-paths", "--nmax", "9", "--unsafe-range")
    assert code == 0
    assert json.loads(out) == {"failures": [], "ok": True, "suite": "psi-paths", "tasks": 175}


def test_jobs_only_where_it_acts(capsys):
    for argv in (("phi", "-n", "3", "-d", "2", "--jobs", "2"),
                 ("psi", "--set", "{0}", "--jobs", "1")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert not capsys.readouterr().out
    parser = build_parser()
    for argv in (("psi", "--set", "{0}"), ("delta", "-m", "1", "-n", "2", "-r", "1"),
                 ("phi", "-n", "3", "-d", "2"), ("check", "worked")):
        assert parser.parse_args([*argv, "--unsafe-range"]).unsafe_range, argv


_BROKEN_DIVISION = """
import functools
import sys
from fractions import Fraction
from mldeg import cli, degrees, exact, qschur

def raises(fn, *args):
    try:
        fn(*args)
    except exact.ConsistencyError:
        return True
    return False

half = Fraction(1, 2)
# One more than the Cauchy product of ((0,), (0,)) does not divide the
# per-set factors 1 and 5 at n = 5.
cauchy = degrees._cauchy
degrees._cauchy = lambda I, J: cauchy(I, J) + 1
print(raises(exact.det, [[half, 1], [1, 1]]),
      raises(exact.pfaffian, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, half],
                              [0, 0, -half, 0]]),
      raises(degrees.a_value, (0,), (0,), 5), file=sys.stderr)
degrees._cauchy = cauchy
# At n = 5 the table runs over a corrupted one-row list: 3*G_3 = 520.
q_table = qschur._q_table

def broken_q_table(n):
    if n != 5:
        return q_table(n)
    g = [1, 10, 51]
    return exact.pfaffian_table(functools.partial(qschur._tworow_at, g, n, 0),
                                functools.partial(qschur._tworow_at, g, n))

qschur._q_table = broken_q_table
sys.exit(cli.main(["delta", "-m", "10", "-n", "5", "-r", "3", "--path", "nrs"]))
"""


def test_broken_exact_division_exits_3_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_DIVISION],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert not proc.stdout
    assert proc.stderr.splitlines()[0] == "True True True"
    assert "internal disagreement" in proc.stderr


_BAD_ARGUMENTS = """
from mldeg.degrees import a_value, pataki_window
from mldeg.indexsets import enumerate_indexsets
from mldeg.poly_n import lp_a_poly
from mldeg.qschur import b_value

calls = (
    lambda: lp_a_poly((0,), (0, 1)),
    lambda: pataki_window("sym", 3, 0),
    lambda: list(enumerate_indexsets(-1, 0)),
    lambda: b_value((2, 1), 3),
    lambda: a_value((0, 1), (0,), 5),
    lambda: a_value((2,), (0, 3), 5),
    lambda: a_value((0,), (0,), -1),
)
for call in calls:
    try:
        call()
        print("returned")
    except ValueError:
        print("ValueError")
"""


def test_bad_arguments_raise_value_error_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_ARGUMENTS],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 7


_EXIT_CODES = """
import contextlib, io
from mldeg import checks, cli, degrees, lascoux
from mldeg.indexsets import check_indexset

errors = []

def exit_code(*argv):
    errors.append(io.StringIO())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors[-1]):
        return cli.main(list(argv))

codes = [exit_code("psi", "--set", "{0,3}"),
         exit_code("delta", "--type", "a", "-m", "9", "-n", "4", "-r", "2", "--path", "both")]
codes += [exit_code("psi", "--set", text) for text in ("{3,1}", "{-1}", "{0.5}")]
d_a = lascoux.d_a
checks.ROUTES[("d", "pascal")] = lambda I, J: d_a(I, J) + 1
codes.append(exit_code("check", "da-paths", "--nmax", "3"))
# +1 on the int Q value of {0,4}, of sum 4 = m - #I, at a term of weight 1
b_value = degrees.b_value
degrees.b_value = lambda I, n: b_value(I, n) + int(I == (0, 4))
codes.append(exit_code("delta", "--type", "sym", "-m", "6", "-n", "4", "-r", "2",
                       "--path", "nrs"))
print(*codes)
print("not an integer" in errors[-1].getvalue())
for bad in ((3, 1), (-1,), (0.5,)):
    for fn in (check_indexset, lascoux.psi):
        try:
            fn(bad)
        except ValueError as exc:
            print(exc)
"""


def test_exit_codes_and_set_checks_hold_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _EXIT_CODES],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["0 0 2 2 2 1 3", "True"]
    texts = ["not strictly increasing: (3, 1)", "bad index entry -1", "bad index entry 0.5"]
    assert lines[2:] == [text for text in texts for _ in range(2)]


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_SMALL_INTS = st.integers(-2, 14).map(str)
_SETS = st.one_of(
    st.lists(st.integers(0, 8), max_size=3, unique=True).map(
        lambda xs: "{" + ",".join(map(str, sorted(xs))) + "}"),
    st.sampled_from(["{3,1}", "{-1}", "x"]),
)
_TYPES = st.sampled_from(["sym", "a", "d", "skew", "hermitian"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["psi", "delta", "phi", "check"]))
    argv = [command]
    # --unsafe-range lifts the caps on n, so n reaches 200 there; m, d,
    # DMAX and the sets stay small, which keeps every query cheap.
    unsafe = draw(st.booleans())
    sizes = st.integers(-2, 200 if unsafe else 14)
    if command == "psi":
        family = draw(st.sampled_from(["psi", "alpha", "d", "beta"]))
        argv += ["--set", draw(_SETS), "--family", family]
        if family == "d":
            argv += ["--pair", draw(_SETS)]
        else:
            argv += draw(_option("--pair", _SETS))
        argv += draw(_option("--complement", _SMALL_INTS))
        argv += draw(_option("--path", st.sampled_from(
            ["pfaffian", "pascal", "recursion", "oracle", "fast"])))
    elif command == "delta":
        argv += draw(_option("--type", _TYPES))
        n = draw(sizes)
        # a small rank, or a small corank, which at large n has terms
        r = draw(st.one_of(st.integers(-2, 14), st.integers(-2, 14).map(lambda k: n - k)))
        argv += ["-m", draw(_SMALL_INTS), "-n", str(n), "-r", str(r)]
        argv += draw(_option("--path", st.sampled_from(["direct", "nrs", "both", "fast"])))
    elif command == "phi":
        argv += draw(_option("--type", _TYPES))
        flags = draw(st.sampled_from([("-n", "-d"), ("-d",), ("--table",), ("-n", "-d", "--table")]))
        for flag in flags:
            argv += [flag, str(draw(sizes)) if flag == "-n" else draw(_SMALL_INTS)]
        argv += draw(st.sampled_from([[], ["--poly"]]))
    else:
        argv += [draw(st.sampled_from(["worked", "conics", "duality", "pataki"]))]
        argv += ["--nmax", str(draw(st.integers(-2, 3)))]
    if command in ("delta", "check"):
        argv += draw(_option("--jobs", st.integers(-1, 2).map(str)))
    if unsafe:
        argv.append("--unsafe-range")
    return argv


@given(_argv())
@settings(max_examples=150, deadline=None)
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse: its usage text, then its own error line
            code = exc.code
            assert code == 2, (argv, err.getvalue())
            code = "argparse"
    assert "Traceback" not in err.getvalue(), argv
    assert code in (0, 1, 2, 3, "argparse"), (argv, err.getvalue())
    lines = out.getvalue().splitlines()
    if code == 2:
        assert not lines, argv
        errors = err.getvalue().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), (argv, errors)
    elif code == 0 and "--table" in argv:
        dmax = int(argv[argv.index("--table") + 1])
        assert lines[0] == "d," + ",".join(f"coeff_{k}" for k in range(dmax)), argv
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(d) for d in range(1, dmax + 1)], argv
        assert all(line.count(",") == dmax for line in lines), argv
    elif code == 0:
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), argv


def test_cache_env_var(tmp_path):
    # There is no persistent coefficient cache: --cache and --verify-cache
    # are usage errors, MLDEG_CACHE is ignored, and no file is written.
    cache = tmp_path / "coeffs.tsv"
    proc = run_cli("psi", "--set", "{0,3}", "--cache", str(cache))
    assert proc.returncode == 2 and not proc.stdout

    proc = run_cli("check", "worked", "--verify-cache")
    assert proc.returncode == 2 and not proc.stdout

    env = dict(os.environ, MLDEG_CACHE=str(cache))
    proc = run_cli("psi", "--set", "{0,3}", env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == 7

    assert list(tmp_path.iterdir()) == []


def test_jobs_byte_identity():
    serial = run_cli("check", "duality", "--nmax", "4", "--jobs", "1")
    parallel = run_cli("check", "duality", "--nmax", "4", "--jobs", "3")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout

    one = run_cli("delta", "--type", "sym", "-m", "8", "-n", "5", "-r", "2",
                  "--path", "both", "--jobs", "1")
    four = run_cli("delta", "--type", "sym", "-m", "8", "-n", "5", "-r", "2",
                   "--path", "both", "--jobs", "4")
    assert one.returncode == four.returncode == 0
    assert one.stdout == four.stdout


def test_stdout_is_json_with_sorted_keys():
    proc = run_cli("delta", "--type", "d", "-m", "6", "-n", "3", "-r", "1",
                   "--path", "both")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(data, sort_keys=True) + "\n"
    assert data["result"] == 14
    assert "wall_time_s=" in proc.stderr


def test_run_freezes_once_after_the_output(capsys, monkeypatch):
    # The console entry freezes the objects left so that shutdown skips
    # them; main, called in process, never does.
    for text, expected in (("{0,3}", 0), ("{3,1}", 2)):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr()))
        monkeypatch.setattr(sys, "argv", ["mldeg", "psi", "--set", text])
        assert run() == expected
        assert len(frozen) == 1, text
        out, err = frozen[0]
        if expected:
            assert not out and err.startswith("error:"), err
        else:
            assert json.loads(out)["result"] == 7 and "wall_time_s=" in err
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'mldeg = "mldeg.cli:run"' in pyproject.read_text().splitlines()


def test_import_stays_lean():
    # Start-up is most of a desk query: importing the CLI must not pull
    # in the heavy stdlib modules, and must still load every layer.
    listing = "import sys; print('\\n'.join(sorted(sys.modules)))"

    def modules(prelude):
        proc = subprocess.run([sys.executable, "-c", prelude + listing],
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    added = modules("import mldeg.cli; ") - modules("")
    assert not added & {"dataclasses", "inspect", "logging"}, sorted(added)
    layers = {"checks", "cli", "degrees", "exact", "indexsets", "lascoux",
              "poly_n", "qschur", "schur_oracle"}
    assert {f"mldeg.{name}" for name in layers} <= added


def test_huge_results_print_in_full(capsys):
    # Exact results may pass CPython's 4300-digit int-to-str limit; the
    # output lifts it, and the input keeps it.  Sets this large are past
    # the element cap.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    for text, value in (("{15000}", 2 ** 15000), ("{0,20000}", 2 ** 20000 - 1)):
        code, out, err = run_main(capsys, "psi", "--set", text, "--unsafe-range")
        assert code == 0 and "Traceback" not in err, err
        assert get_limit() == limit
        digits = json.loads(out, parse_int=str)["result"]
        assert len(digits) > 4300
        # Compared in 1000-digit chunks, each under the limit.
        for end in range(len(digits), 0, -1000):
            assert int(digits[max(0, end - 1000):end]) == value % 10 ** 1000, text
            value //= 10 ** 1000
        assert value == 0
    code, out, err = run_main(capsys, "psi", "--set", "{" + "1" * 5000 + "}")
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
