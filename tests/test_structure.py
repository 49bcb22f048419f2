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


def test_every_private_function_has_a_caller():
    # a _-prefixed function or method that nothing in the package names,
    # apart from its own body, is dead code
    defined, named = {}, set()

    def visit(node, inside, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.setdefault(node.name, f"{module}:{node.lineno}")
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            named.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            named.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, module)

    for path in sorted(Path(permlab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset(), path.name)
    assert sorted(where for name, where in defined.items() if name not in named) == []
