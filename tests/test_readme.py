"""The README against the code: the command table and the Python API example."""

import argparse
import re
from pathlib import Path

from lcalearn import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_command_table_lists_every_subcommand():
    listed = re.findall(r"^\| `([a-z-]+)` \|", section("Commands"), flags=re.M)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


def test_python_api_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", section("Python API"), flags=re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
