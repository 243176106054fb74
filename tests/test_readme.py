"""The README's Library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.filterwarnings("error")
def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
