"""The README's Library example runs as written, its Library section names
every shaping field, and its CLI section names every flag and every `--stats`
key."""

import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from rankdyn import EmaState, ShapingConfig, verify, write_matrix
from rankdyn.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    return README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)


@pytest.mark.filterwarnings("error")
def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_names_every_shaping_field():
    text = section("Library")
    names = [f.name for cls in (EmaState, ShapingConfig) for f in fields(cls)]
    assert [name for name in names if f"`{name}`" not in text] == []


def test_cli_synopsis_lists_every_flag():
    block = re.search(r"```sh\n(.*?)```", section("CLI"), re.S).group(1)
    # One synopsis per command: from `rankdyn <command>` to the next blank line.
    synopses = dict(re.findall(r"^rankdyn (\w+)(.*?)(?:\n\n|\Z)", block, re.S | re.M))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert synopses.keys() == commands.choices.keys()
    for name, parser in commands.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings
                 if flag.startswith("--") and flag != "--help"}
        assert flags == set(re.findall(r"--[\w-]+", synopses[name])), name


def test_readme_names_every_stats_key(tmp_path):
    path = tmp_path / "t.hsmx"
    write_matrix(verify.hard_fixture("gaussian", 96, 8, 0), path)
    (tmp_path / "m.txt").write_text(f"{path},g,1,1\n{path},g,0,1\n")
    keys = set()
    for argv in (["metrics", "--in", str(path)], ["shape", "--manifest", str(tmp_path / "m.txt")]):
        stats = tmp_path / f"{argv[0]}.json"
        assert main([*argv, "--out", str(tmp_path / "out.csv"), "--stats", str(stats)]) == 0
        report = json.loads(stats.read_text())
        keys |= {*report, *report["stage_s"], *report["rows"]}
    text = README.read_text()
    assert sorted(key for key in keys if f"`{key}`" not in text) == []
