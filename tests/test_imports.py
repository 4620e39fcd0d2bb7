"""Package layout: modules share helpers through public names only, and no
check in the package is an assert, which python -O strips."""

import ast
from pathlib import Path

import bracekit

PACKAGE = Path(bracekit.__file__).parent


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("bracekit"):
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not found, found


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_require_messages_are_string_literals():
    """errors.require takes a constant message, so that a passing check
    costs one call and no formatting."""
    calls = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "require"
    ]
    found = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if node.keywords
        or len(node.args) != 2
        or not (isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str))
    ]
    assert calls and not found, found
