"""Correctness gate: judge one operation's exit code, stdout and stderr.

An operation fails on a traceback on stderr, on an exit code outside
the 0/1/2/3 contract or other than the one expected, and on stdout
that does not carry the reference answer.
"""

from __future__ import annotations

import json

CONTRACT_EXITS = (0, 1, 2, 3)


def judge(op, code, stdout, stderr, reference):
    """None when the operation is correct, else the reason it failed."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    if code not in CONTRACT_EXITS:
        return f"exit code {code} is outside the 0/1/2/3 contract"
    if code != op["exit"]:
        return f"exit code {code}, expected {op['exit']}"
    expected = reference.get(op["key"])
    if expected is None:
        return f"no reference answer for {op['key']!r}"
    if "csv" in expected:
        lines = stdout.splitlines()
        return None if lines == expected["csv"] else "csv table differs from reference"
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return f"expected one JSON line on stdout, got {len(lines)}"
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    for field, want in expected.items():
        if payload.get(field) != want:
            return f"{field} is {payload.get(field)!r}, reference has {want!r}"
    return None
