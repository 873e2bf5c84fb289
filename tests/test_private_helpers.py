"""No private helper exists only for its own unit test.

Every module-level function or class of the package whose name starts with
an underscore must be used by the package or the benchmark: some Name or
Attribute node in `src/replygen` or in `perfbench`'s non-test modules must
refer to it outside its own definition. An import alone is no use, and a
test's reference does not count.
"""

import ast
from pathlib import Path

import replygen

SRC = Path(replygen.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _private_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


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


def test_every_private_helper_is_used_outside_its_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    helpers = [(path, node) for path in trees if path.parent == SRC
               for node in _private_definitions(trees[path])]
    assert helpers
    unused = []
    for path, definition in helpers:
        used = any(definition.name in _references(tree, definition)
                   for tree in trees.values())
        if not used:
            unused.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert not unused, "private helpers nothing in the package or benchmark uses: " + \
        ", ".join(unused)
