"""Checked-in outputs that must not move by a bit: ``tests/golden/oracle.json``
holds ``mrdd oracle`` on a 15-point (p, lambda) grid. Each point is run
through ``cli.main`` and its stdout compared byte for byte with the golden,
which stores the output as JSON; a mismatch names the point and each field
that moved, with its old and new value.

A change that moves these bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and lists the moved fields.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mrdd.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "oracle.json"
GRID = [(p, lam) for p in (0.0, 0.1, 0.3, 0.5, 0.9) for lam in (0.05, 0.3, 1.0)]


def oracle_command(p: float, lam: float) -> str:
    """The arguments of ``mrdd`` that run the oracle at (p, lam)."""
    return f"oracle --p {p!r} --lambda {lam!r}"


def run_main(command: str) -> str:
    """What ``main`` writes to stdout on the arguments ``command``; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0, command
    return out.getvalue()


def moved_fields(old, new, name: str = "") -> list[str]:
    """``name: old -> new`` for each number, string or list entry that differs,
    a float compared by its repr, which round-trips every bit."""
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        return [line for key in old for line in moved_fields(old[key], new[key], f"{name}.{key}".lstrip("."))]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in moved_fields(a, b, f"{name}[{i}]")]
    return [] if repr(old) == repr(new) else [f"{name}: {old!r} -> {new!r}"]


def load_golden() -> dict:
    """Each golden point's output by its command."""
    return {point["command"]: point["output"] for point in json.loads(GOLDEN.read_text())["points"]}


@pytest.mark.parametrize("p, lam", GRID, ids=[f"p={p}-lambda={lam}" for p, lam in GRID])
def test_oracle_matches_golden(p, lam):
    golden = load_golden()[oracle_command(p, lam)]
    got = run_main(oracle_command(p, lam))
    if got != json.dumps(golden, indent=2) + "\n":
        moved = moved_fields(golden, json.loads(got)) or [f"the text moved:\n{got}"]
        pytest.fail(f"oracle at (p, lambda) = ({p}, {lam}) moved:\n" + "\n".join(moved), pytrace=False)


def test_golden_covers_the_grid():
    assert list(load_golden()) == [oracle_command(p, lam) for p, lam in GRID]


def test_moved_fields_names_each_change():
    old = {"p": 0.1, "mu_plus": 0.5, "crude": [0.0, 1.0]}
    new = {"p": 0.1, "mu_plus": 0.5000000000000001, "crude": [0.0, 0.9]}
    assert moved_fields(old, new) == ["mu_plus: 0.5 -> 0.5000000000000001", "crude[1]: 1.0 -> 0.9"]
    assert moved_fields(old, dict(old)) == []


if __name__ == "__main__":
    commands = [oracle_command(p, lam) for p, lam in GRID]
    points = [{"command": command, "output": json.loads(run_main(command))} for command in commands]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"points": points}, indent=2) + "\n")
