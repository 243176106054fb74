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


def imported_modules(name):
    """Every module path an import in src/rankdyn/<name> names, a relative one
    resolved into rankdyn: `from . import cli` gives rankdyn and rankdyn.cli."""
    found = []
    for node in ast.walk(ast.parse((SRC / name).read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rankdyn" if node.level else "", node.module]))
            found += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return found


def test_cli_holds_no_process_code():
    """The fork pool, its pipes, prctl and the cgroup quota live in batch.py:
    cli.py imports none of their modules, and batch.py imports nothing of cli."""
    process = {"contextlib", "ctypes", "math", "pickle", "select", "signal"}
    assert [m for m in imported_modules("cli.py") if m.split(".")[0] in process] == []
    assert [m for m in imported_modules("batch.py") if m.split(".")[:2] == ["rankdyn", "cli"]] == []


def test_only_the_matrix_and_the_gram_solve_raise_nonfinite_value():
    """Hidden states are checked once, when a HiddenStateMatrix is made (tensor_io.py);
    the Gram solve checks its own input (gram_stream.py). No other module builds the error."""
    builders = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "NonFiniteValue"
    }
    assert builders == {"tensor_io.py", "gram_stream.py"}
