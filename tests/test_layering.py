"""The package's modules import one another in one direction only: each
imports only modules earlier in LAYERS, also in its lazy imports inside
functions, so no import cycle can form.  Every private function of the
package is called from the package, and every message a raise spells out
is raised at one site, the one statement of its rule.  Every name a module
imports is read there or republished.  Memos are functools caches: no class
is a hand-rolled one."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import orbit_entropy

LAYERS = (
    "exact", "entropy", "dynkin", "verify", "report",
    "reflection", "symplectic", "oracle", "cli",
)
PACKAGE = Path(orbit_entropy.__file__).parent


def _package_imports(path):
    # the package modules a file imports: relative imports, absolute
    # orbit_entropy ones and the names of `from . import x`
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").split(".")[0] == "orbit_entropy":
                module = node.module.partition(".")[2] or None
            else:
                continue
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "orbit_entropy":
                    out.add(rest.split(".")[0])
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_point_to_earlier_layers(name):
    earlier = set(LAYERS[: LAYERS.index(name)])
    imported = _package_imports(PACKAGE / f"{name}.py")
    assert imported <= earlier, sorted(imported - earlier)


def _private_functions(tree):
    # names of the module-level and class-level functions that start with
    # one underscore
    scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
    return {
        node.name
        for scope in scopes
        for node in scope.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def test_every_private_function_has_a_caller_in_the_package():
    # a helper that only tests use is dead code
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    defined = set().union(*map(_private_functions, trees))
    assert defined <= used, sorted(defined - used)


def _imported_names(tree):
    # the names the module-level imports bind, but __future__ features and
    # star imports
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)


def _exported_names(tree):
    # the string entries of a module-level __all__ list
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant):
                    yield elt.value


def _unused_imports(tree):
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(_imported_names(tree)) - read - set(_exported_names(tree)))


def test_every_import_is_used():
    # a name imported and never read, nor republished in __all__, is left
    # over from code that is gone
    unused = {
        path.stem: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert not unused, unused


def _raised_literals(tree):
    # the string literals passed to each `raise X(...)`, one per site
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            for arg in node.exc.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    yield arg.value


def test_every_raised_message_has_one_site():
    # each input rule is stated once, so its message is raised at one site
    sites = Counter(
        text
        for path in sorted(PACKAGE.glob("*.py"))
        for text in _raised_literals(ast.parse(path.read_text()))
    )
    repeated = {text: count for text, count in sites.items() if count > 1}
    assert not repeated, repeated


def test_no_class_is_a_hand_rolled_memo():
    # the package memoizes through functools caches only: no class
    # subclasses dict or fills itself in through __missing__
    memos = [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and (
            any(isinstance(b, ast.Name) and b.id == "dict" for b in node.bases)
            or any(
                isinstance(f, ast.FunctionDef) and f.name == "__missing__"
                for f in node.body
            )
        )
    ]
    assert not memos, memos
