import ast
from pathlib import Path

import forbidposet

PACKAGE = Path(forbidposet.__file__).parent


def test_every_exported_name_resolves():
    assert [name for name in forbidposet.__all__ if not hasattr(forbidposet, name)] == []


def _definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _references(tree: ast.AST, skip: ast.AST):
    """Names read and attributes taken anywhere in tree outside skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_no_test_only_code_in_package():
    # a module-level name that nothing in the package reads and that is not
    # exported serves only the tests, and its reference copy belongs there
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    unused = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if not name.startswith("__")
        and name not in forbidposet.__all__
        and not any(name in _references(other, node) for other in trees.values())
    )
    assert unused == []


def test_private_imports_between_modules_are_pinned():
    # a private name that one package module imports from another couples
    # their internals; each is listed here, so a new one is a deliberate edit
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level or module.startswith(f"{PACKAGE.name}."):
                source = module.rpartition(".")[2]
                imported |= {
                    f"{path.stem} <- {source}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                }
    assert imported == {
        "search <- detector._Level",
        "search <- detector._Pattern",
        "search <- detector._check_mode",
        "search <- detector._hits_with_member",
    }


def _cached_definitions(tree: ast.Module):
    """Module-level definitions that use functools.cache or lru_cache."""
    caches, names, modules = {"cache", "lru_cache"}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in caches}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    for name, node in _definitions(tree):
        if any(
            isinstance(leaf, ast.Name) and leaf.id in names
            or isinstance(leaf, ast.Attribute)
            and leaf.attr in caches
            and isinstance(leaf.value, ast.Name)
            and leaf.value.id in modules
            for leaf in ast.walk(node)
        ):
            yield name


def test_process_wide_caches_are_pinned():
    # a functools cache lives as long as the process, so it may only be
    # keyed by a small fixed range: lattice._byte_texts by a chunk count of
    # at most 8, one chunk per 8 ground elements.  What one question builds,
    # such as a poset's plan, belongs to that question.
    cached = {
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in _cached_definitions(ast.parse(path.read_text()))
    }
    assert cached == {"lattice._byte_texts"}
