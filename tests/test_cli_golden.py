"""Golden test: the CLI's output bytes are locked.

``cli_golden.json`` holds the sha256 of stdout and the exit code of each
command below: every MSE-report command at default and full precision, a
non-default constant set run as both ``table`` and ``mse``, and a short
seeded ``simulate``.  Any refactor that changes a printed digit fails here
with the command that changed.  Regenerate deliberately, after checking the
new output by hand, with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stratmean.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def golden_commands() -> list[list[str]]:
    commands = []
    for data in ("paper-1", "paper-2"):
        for fmt in ("text", "csv", "json"):
            tail = ["--data", data, "--output-format", fmt]
            commands += [
                ["table", *tail],
                ["mse", *tail],
                ["optimize", *tail],
                ["estimate", *tail, "--ybar-st", "50", "--xbar-st", "40"],
            ]
    for fmt in ("text", "csv", "json"):
        commands.append(["table", "--paper-layout", "--output-format", fmt])
    for data in ("paper-1", "paper-2"):
        tail = ["--data", data, "--full-precision", "--output-format", "json"]
        commands += [
            ["table", *tail],
            ["mse", *tail],
            ["optimize", *tail],
            ["estimate", *tail, "--ybar-st", "50", "--xbar-st", "40"],
        ]
    custom = ["--estimators", "t3,t4,t6", "--k1", "0.9", "--k2", "0.01",
              "--p", "1", "--a", "1", "--b", "0"]
    for cmd in ("table", "mse"):
        commands.append([cmd, "--data", "paper-1", *custom])
    for data in ("paper-1", "paper-2"):
        commands.append(
            ["simulate", "--data", data, "--reps", "2000", "--seed", "3", "--full-precision"]
        )
    # three replication blocks, the last one partial
    commands.append(
        ["simulate", "--data", "paper-2", "--reps", "9000", "--seed", "3", "--full-precision"]
    )
    return commands


def run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_output_unchanged(argv):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[" ".join(argv)]
    got = run(argv)
    assert got == want, f"output of `stratmean {' '.join(argv)}` changed"


if __name__ == "__main__":
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for argv in golden_commands():
        if " ".join(argv) not in table:
            table[" ".join(argv)] = run(argv)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
