"""The documented surface: README's library example and the console script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stratmean as sm

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(sm.__file__).resolve().parents[1])


def test_readme_library_use_runs(capsys):
    """The "Library use" code block runs as written against the package."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README's Library use section has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and all(printed)
    assert isinstance(namespace["report"], sm.EmpiricalReport)
    assert isinstance(namespace["exact"], sm.CombinedMoments)


def _console_script() -> tuple[str, str]:
    """(module, function) of pyproject.toml's ``stratmean`` script."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["stratmean"]
    module, _, function = target.partition(":")
    return module, function


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["table", "--paper-layout"], 0, None),
        (["moments", "--data", "{tmp}"], 3, "error:parse: "),
        (["simulate", "--data", "paper-1", "--workers", "2"], 2, "error:usage: "),
    ],
    ids=["table", "directory-as-data", "workers-2"],
)
def test_console_script_exit_codes(tmp_path, argv, code, prefix):
    """The [project.scripts] target, called as an installed script calls it,
    returns its exit code to the shell with one ``error:`` line on stderr."""
    module, function = _console_script()
    launcher = f"import sys; from {module} import {function}; sys.exit({function}())"
    done = subprocess.run(
        [sys.executable, "-c", launcher, *(a.format(tmp=tmp_path) for a in argv)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    if prefix is None:
        assert done.stdout and not done.stderr
    else:
        assert done.stderr.startswith(prefix) and done.stderr.count("\n") == 1, done.stderr
