"""Golden test: the CLI's output bytes are locked.

``cli_golden.json`` holds the sha256 of stdout and the exit code of each
command below: every MSE-report command at default and full precision, a
non-default constant set run as both ``table`` and ``mse``, short seeded
``simulate`` runs, and one on ``invalid_draws.json`` (next to this file),
whose draws are partly invalid.  Any refactor that changes a printed digit
fails here with the command that changed.  Regenerate deliberately, after
checking the new output by hand, with
``PYTHONPATH=src python tests/test_cli_golden.py``; it adds new commands and
the digest of the CPU dispatch in force to a per-dispatch entry.

``np.power`` with a fractional exponent (T1, T3 and T5 at their optimal w)
runs numpy's AVX512 SVML loop where the CPU has AVX512 and libm elsewhere,
and the two differ in the last bits.  So the ``simulate`` entries on the
bundled designs hold one exact digest per dispatch, keyed by ``DISPATCH``.
Check the other one with
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` (numpy 2.4; on
older numpy the feature to disable is AVX512_SKX).
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stratmean.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

#: The ``np.power`` loop in force: numpy's SVML loops need AVX512_SKX.
DISPATCH = "avx512" if __cpu_features__.get("AVX512_SKX") else "no-avx512"


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
    # two blocks with masked draws: fractional powers of negative bases
    commands.append(
        ["simulate", "--data", "invalid_draws.json",
         "--estimators", "t1,t2,t5,ratio,product,unbiased", "--w", "0.5",
         "--p", "0.5", "--a", "1", "--b", "0", "--k1", "0.9", "--k2", "0.01",
         "--reps", "5000", "--seed", "3", "--full-precision"]
    )
    return commands


def run(argv: list[str]) -> dict:
    """Exit code and stdout digest; a ``.json`` argument names a file here."""
    argv = [str(GOLDEN.with_name(a)) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_output_unchanged(argv):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[" ".join(argv)]
    if isinstance(want["sha256"], dict):
        want = {**want, "sha256": want["sha256"][DISPATCH]}
    got = run(argv)
    assert got == want, f"output of `stratmean {' '.join(argv)}` changed ({DISPATCH})"


if __name__ == "__main__":
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for argv in golden_commands():
        key = " ".join(argv)
        if key not in table:
            table[key] = run(argv)
        elif isinstance(table[key]["sha256"], dict):
            table[key]["sha256"].setdefault(DISPATCH, run(argv)["sha256"])
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
