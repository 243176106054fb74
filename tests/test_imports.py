import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankdyn"

# perfbench wraps dynamics.effective_rank by that name, though dynamics never reads it.
HOOKED = {("dynamics.py", "effective_rank")}


def test_src_has_no_unused_import():
    """Every name an import binds in a module of src/rankdyn is read there;
    __init__.py only re-exports, so it is left out."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue  # a compiler directive, not a binding
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (path.name, name) not in HOOKED:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_src_lines_fit_in_100_columns():
    """No line of src/rankdyn is longer than 100 characters: a module that has
    outgrown its width is split or simplified, not packed denser."""
    long = [
        f"{path.name}:{number} ({len(line)})"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []
