"""The package's modules share only public names and import at module level."""

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


def test_functions_import_only_to_break_a_cycle():
    # streams imports matching at module level, so matching imports
    # streams' EdgeStream inside instance_to_stream
    allowed = {"matching.py instance_to_stream"}
    found = set()
    for path in sorted(Path(permlab.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name} {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(found - allowed) == []


def test_the_oracle_imports_no_generator_module():
    # matching checks what gen writes, so it must not share gen's code
    path = Path(permlab.__file__).parent / "matching.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
    assert imported & {"gen", "blocks", "hph", "sortnet", "rs"} == set()
