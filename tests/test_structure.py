"""The package's modules share only public names and import at module level."""

import ast
from pathlib import Path

import permlab


def modules():
    """Each module of the package: its file name and its parsed source."""
    for path in sorted(Path(permlab.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def imported_names():
    """Where and what each "from ... import" of the package imports, a name at a time."""
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                yield from ((f"{name}:{node.lineno}", alias.name) for alias in node.names)


def test_no_module_imports_another_modules_underscore_names():
    assert [f"{where} {name}" for where, name in imported_names()
            if name.startswith("_") and name != "__version__"] == []


def test_the_memory_bounds_are_set_in_codec_alone():
    # rows are walked codec.BLOCK at a time and files read codec.WINDOW bytes
    # at a time; a module that bound either by value would not see it set
    bounds = {"BLOCK", "WINDOW", "CHUNK"}
    assert [f"{where} {name}" for where, name in imported_names() if name in bounds] == []
    assigned = sorted(f"{name} {target.id}" for name, tree in modules() for node in ast.walk(tree)
                      if isinstance(node, ast.Assign) for target in node.targets
                      if isinstance(target, ast.Name) and target.id in bounds)
    assert assigned == ["codec.py BLOCK", "codec.py WINDOW"]


def test_functions_import_only_to_break_a_cycle():
    # streams imports matching at module level, so matching imports
    # streams' EdgeStream inside instance_to_stream
    allowed = {"matching.py instance_to_stream"}
    found = set()
    for name, tree in modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{name} {fn.name}" for node in ast.walk(fn)
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

    for name, tree in modules():
        visit(tree, frozenset(), name)
    assert sorted(where for name, where in defined.items() if name not in named) == []
