"""Package hygiene: the library has no runtime dependencies."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "symcirc"


def test_imports_only_stdlib_and_symcirc():
    allowed = set(sys.stdlib_module_names) | {"symcirc"}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    assert found, "no imports found; is SRC right?"
    assert {name: files for name, files in found.items() if name not in allowed} == {}
