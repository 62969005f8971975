"""Command line contract: exit codes, JSON shape, cache, worker counts."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from mldeg import checks, cli, degrees
from mldeg.cli import CACHE_HEADER, UsageError, main, parse_set


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("MLDEG_CACHE", raising=False)


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("MLDEG_CACHE", None)
    if env_extra:
        env.update(env_extra)
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
    for bad in ("{0,0}", "{-1}", "{a}", "0;1", "{3,1}", "{1,-2}"):
        with pytest.raises(UsageError):
            parse_set(bad)


def test_bad_set_is_usage_error_under_optimize():
    for text in ("{3,1}", "{-1}"):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "mldeg", "psi", "--set", text],
            capture_output=True, text=True,
            env={k: v for k, v in os.environ.items() if k != "MLDEG_CACHE"},
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
    assert "wall_time_s=" in err and "cache_hits=" in err

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


def test_usage_errors(capsys):
    bad_calls = [
        ("psi", "--set", "{0,0}"),
        ("psi", "--set", "{0}", "--pair", "{1}"),
        ("psi", "--set", "{0}", "--family", "d"),
        ("psi", "--set", "{1}", "--family", "alpha", "--path", "pfaffian"),
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
        ("check", "worked", "--verify-cache"),
        ("psi", "--set", "{0}", "--jobs", "0"),
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


def test_delta_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setitem(
        degrees.TYPE_TABLE, ("sym", "nrs_partial"), lambda n, items: Fraction(999))
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


def test_phi_table(capsys):
    code, out, _ = run_main(capsys, "phi", "--table", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,coeff_0,coeff_1,coeff_2"
    assert lines[1] == "1,1,0,0"
    assert lines[2] == "2,-1,1,0"
    assert lines[3] == "3,1,-2,1"
    assert len(lines) == 4


def test_check_pass_and_fail(capsys, monkeypatch):
    code, out, _ = run_main(capsys, "check", "worked")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["tasks"] == 5 and data["failures"] == []

    monkeypatch.setitem(
        checks._SUITES, "worked",
        lambda nmax, sum_max: [("phi_anchor", 3, 2, 999)])
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


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path / "coeffs.tsv")
    first = run_cli("delta", "--type", "sym", "-m", "4", "-n", "4", "-r", "2",
                    "--path", "both", "--cache", cache)
    assert first.returncode == 0
    with open(cache) as handle:
        content = handle.read()
    assert content.splitlines()[0] == CACHE_HEADER
    assert "psi\t" in content

    second = run_cli("delta", "--type", "sym", "-m", "4", "-n", "4", "-r", "2",
                     "--path", "both", "--cache", cache)
    assert second.returncode == 0
    assert second.stdout == first.stdout
    hits = int(second.stderr.rsplit("cache_hits=", 1)[1])
    assert hits > 0

    # Reload produced no new rows, so the file is unchanged.
    with open(cache) as handle:
        assert handle.read() == content

    verified = run_cli("delta", "--type", "sym", "-m", "4", "-n", "4", "-r", "2",
                       "--path", "both", "--cache", cache, "--verify-cache")
    assert verified.returncode == 0
    assert verified.stdout == first.stdout


def test_cache_corruption_detected(tmp_path):
    cache = str(tmp_path / "coeffs.tsv")
    seeded = run_cli("psi", "--set", "{1,3}", "--cache", cache)
    assert seeded.returncode == 0
    with open(cache) as handle:
        lines = handle.read().splitlines()
    broken = [lines[0]]
    for line in lines[1:]:
        family, key, _ = line.split("\t")
        broken.append(f"{family}\t{key}\t424242")
    with open(cache, "w") as handle:
        handle.write("\n".join(broken) + "\n")

    proc = run_cli("psi", "--set", "{1,3}", "--cache", cache, "--verify-cache")
    assert proc.returncode == 3
    assert "cache mismatch" in proc.stderr


def test_cache_bad_header(tmp_path):
    cache = tmp_path / "coeffs.tsv"
    cache.write_text("bogus\npsi\t{0}\t1\n")
    proc = run_cli("psi", "--set", "{0}", "--cache", str(cache))
    assert proc.returncode == 2


def test_cache_bad_path_fails_before_work(tmp_path, capsys, monkeypatch):
    def no_work(args, config):
        raise AssertionError("command ran despite a bad cache path")

    monkeypatch.setitem(cli._DISPATCH, "psi", no_work)
    (tmp_path / "plain").write_text("")
    for path in (tmp_path / "missing" / "c.tsv", tmp_path / "plain" / "c.tsv", tmp_path):
        code, out, err = run_main(capsys, "psi", "--set", "{0}", "--cache", str(path))
        assert code == 2, path
        assert not out
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_cache_env_var(tmp_path):
    cache = str(tmp_path / "env.tsv")
    proc = run_cli("psi", "--set", "{2,3}", env_extra={"MLDEG_CACHE": cache})
    assert proc.returncode == 0
    with open(cache) as handle:
        content = handle.read()
    assert "psi\t{2,3}\t10" in content


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
