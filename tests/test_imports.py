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
