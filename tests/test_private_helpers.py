"""No function or class exists only for its own unit test.

Every module-level function or class of the package, public or private,
must be reached from outside the tests in one of three ways:
- the package or the benchmark uses it: some Name or Attribute node in
  `src/replygen` or in `perfbench`'s non-test modules refers to it outside
  its own definition (an import alone is no use);
- the package exports it, through `replygen._EXPORTS`;
- `tests/test_acceptance.py`, the contract's tests, imports it from its
  module.
Any other test's reference does not count.
"""

import ast
from pathlib import Path

import replygen

SRC = Path(replygen.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _references(node, skip=None):
    """The names that Name and Attribute nodes under node refer to,
    leaving out the subtree skip."""
    found = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return found


def _acceptance_imports():
    """(module, name) for each name tests/test_acceptance.py imports from a
    replygen submodule."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"), filename=str(ACCEPTANCE))
    return {(node.module.split(".")[1], alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.startswith("replygen.") for alias in node.names}


def test_every_function_and_class_is_used_outside_its_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    reached = _acceptance_imports() | {(module, name) for module, names
                                       in replygen._EXPORTS.items() for name in names.split()}
    definitions = [(path, node) for path in trees if path.parent == SRC
                   for node in _definitions(trees[path])]
    assert definitions
    unused = []
    for path, definition in definitions:
        used = (path.stem, definition.name) in reached or any(
            definition.name in _references(tree, definition) for tree in trees.values())
        if not used:
            unused.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert not unused, "functions and classes only tests use: " + ", ".join(unused)
