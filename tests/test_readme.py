"""The README against the code: the command table, the config keys and the Python API example."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from lcalearn import cli, experiment
from lcalearn.data import DATASET_KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_command_table_lists_every_subcommand():
    listed = re.findall(r"^\| `([a-z-]+)` \|", section("Commands"), flags=re.M)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


def jsonc_block(text):
    return re.search(r"```jsonc\n(.*?)```", text, flags=re.S).group(1)


def test_config_reference_lists_every_config_key():
    block = jsonc_block(section("Config reference").split("\n### ", 1)[0])
    listed = re.findall(r'^  "([a-z_]+)":', block, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {f.metadata.get("key", f.name) for f in fields(experiment.ExperimentConfig)}


def test_dataset_kinds_list_every_dataset_key():
    block = jsonc_block(section("Config reference").split("\n### Dataset kinds\n", 1)[1])
    kinds = {}
    for kind, body in re.findall(r'\{"kind": "([a-z]+)"(.*?)\}', block, flags=re.S):
        assert kind not in kinds
        kinds[kind] = {"kind"} | set(re.findall(r'"([a-z_]+)":', body))
    assert kinds == {kind: {"kind"} | {f.name for f in fields(spec)}
                     for kind, spec in DATASET_KINDS.items()}


def test_python_api_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", section("Python API"), flags=re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
