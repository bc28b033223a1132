"""The CI workflow's "Installed console script" step, run here with a
``spinhier`` shim on PATH in place of the installed entry point, and the
wiring of that entry point in ``pyproject.toml``.

The step checks only what an installed script can show: that the return
value of ``main`` reaches the shell as exactly 0, 1 or 2, with the one
expected stderr line for each refusal.  Every other CLI behaviour is pinned
in-process by tier-1 (``tests/test_cli.py``), so new CLI behaviour gets a
row there, not a line in the step.  Both files are read by plain string
handling: the test extra has no YAML parser, and Python 3.10 has no
``tomllib``."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_block(workflow: str, step: str) -> str:
    """The ``run: |`` block of the workflow step named ``step``, dedented."""
    lines = workflow.splitlines()
    at = next(n for n, line in enumerate(lines) if line.strip() == f"- name: {step}")
    run = lines[at + 1]
    assert run.strip() == "run: |"
    indent = len(run) - len(run.lstrip())
    block = []
    for line in lines[at + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def _shim(path: Path, argv: str) -> None:
    path.write_text(f'#!/bin/sh\nexec {argv} "$@"\n')
    path.chmod(0o755)


def test_installed_console_script_step_exits_zero(tmp_path):
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    script = tmp_path / "step.sh"
    script.write_text(_run_block(workflow, "Installed console script"))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # the shim stands in for the console script; python is the interpreter under test
    _shim(bin_dir / "spinhier", f"'{sys.executable}' -m spinhier.cli")
    _shim(bin_dir / "python", f"'{sys.executable}'")
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
           "RUNNER_TEMP": str(tmp_path), "PYTHONPATH": str(ROOT / "src")}
    # -x: a failing step ends its stderr with the command that failed
    run = subprocess.run(["bash", "-ex", str(script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


def test_console_script_entry_point_resolves_to_a_callable():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    entries = dict(line.split(" = ", 1) for line in section.splitlines() if line.strip())
    assert entries == {"spinhier": '"spinhier.cli:main"'}
    module, _, name = entries["spinhier"].strip('"').partition(":")
    assert callable(getattr(importlib.import_module(module), name))
