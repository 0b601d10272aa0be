"""The README's ``python`` examples run as written, so none can keep calling
an API that is gone, and every flag in its CLI usage is one the parser
accepts."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_example_runs_without_a_warning(code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def readme_cli_lines():
    """The ``grasswig <command> ...`` lines of the README's unlabelled
    code blocks, where its CLI usage is."""
    lines, fence = [], None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = line[3:] if fence is None else None
        elif fence == "" and line.startswith("grasswig "):
            lines.append(line)
    return lines


def test_every_flag_on_a_readme_cli_line_is_accepted_by_its_subcommand():
    # a flag the parser no longer has cannot linger in the usage
    from grasswig.cli import build_parser

    lines = readme_cli_lines()
    assert lines
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    for line in lines:
        command = line.split()[1]
        assert command in commands, line
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
        assert flags and flags <= set(commands[command]._option_string_actions), (line, flags - set(commands[command]._option_string_actions))
