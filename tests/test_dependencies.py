"""The package imports only what ``pyproject.toml`` declares: numpy, the
standard library and its own modules; and only ``model`` reads ``numbers``,
whose shared rules check every number the package takes."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "zeno_ent"


def _imports():
    """``(file name, line, module)`` of every absolute import in the package."""
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    strays = [f"{name}:{line} {module}" for name, line, module in _imports()
              if module.split(".")[0] not in allowed]
    assert not strays, strays


def test_only_model_imports_numbers():
    readers = [f"{name}:{line}" for name, line, module in _imports()
               if module.split(".")[0] == "numbers" and name != "model.py"]
    assert not readers, readers
