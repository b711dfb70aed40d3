"""Every module-level name of the package has a caller inside it."""

import ast
from collections import Counter
from pathlib import Path

import slpkit

PACKAGE = Path(slpkit.__file__).parent

# public helpers whose only callers are tests (the acceptance gate)
TEST_ONLY = {"c_family_exact_displacement", "laplacian_eigenvalue"}


def definitions(tree):
    """(name, node) for each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def uses(tree):
    """How often `tree` reads, imports or lists in __all__ each name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def test_every_module_level_name_is_named_elsewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((uses(tree) for tree in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in TEST_ONLY:
                continue
            # a definition's own body (a recursive call, say) is no caller
            if everywhere[name] <= uses(node)[name]:
                orphans.append(f"{module}: {name}")
    assert orphans == []


def test_the_test_only_names_still_exist():
    # an allow-list entry whose definition is gone would exempt nothing
    defined = {name for path in PACKAGE.glob("*.py")
               for name, _ in definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert TEST_ONLY <= defined
