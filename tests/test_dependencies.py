"""The package imports only what ``pyproject.toml`` declares: numpy, the
standard library and its own modules."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "zeno_ent"


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    strays = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            strays += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name.split(".")[0] not in allowed]
    assert not strays, strays
