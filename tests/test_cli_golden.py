"""Golden test: the CLI's default-precision output bytes are locked.

``cli_golden.json`` holds the sha256 of stdout and the exit code of each
command below.  The digests were taken before the MSE code was folded into
one quadratic form, so any refactor that changes a printed digit fails here
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
    return commands


def run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_default_precision_output_unchanged(argv):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[" ".join(argv)]
    got = run(argv)
    assert got == want, f"output of `stratmean {' '.join(argv)}` changed"


if __name__ == "__main__":
    table = {" ".join(argv): run(argv) for argv in golden_commands()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
