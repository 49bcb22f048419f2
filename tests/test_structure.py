"""The package's modules share only public names."""

import ast
from pathlib import Path

import permlab


def test_no_module_imports_another_modules_underscore_names():
    found = []
    for path in sorted(Path(permlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and alias.name != "__version__"]
    assert found == []
