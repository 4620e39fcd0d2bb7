"""Package layout: modules share helpers through public names only, no
check in the package is an assert, which python -O strips, every
element-index check hands on the ints it read, no new process-wide dict
or lru_cache holds state between calls, the command line never loads
numpy.ma, and one function builds every GroupTable."""

import ast
import os
import subprocess
import sys
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


def test_check_indices_results_are_used():
    """errors.check_indices returns the ints it checked; a caller that drops
    them goes on to read the raw arguments, which numpy reads differently
    (a list of bools is a mask)."""
    calls, found = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _name(node) == "check_indices":
                calls += 1
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                if _name(node.value) == "check_indices":
                    found.append(f"{path.name}:{node.lineno}")
    assert calls and not found, found


# Process-wide state that outlives a call: the two catalog caches, the
# theorem registry and the two memoised group searches.  Any other memo
# lives inside the call that fills it, so no result depends on call history.
MODULE_STATE = {
    "enumeration.py:_GROUPS_CACHE",
    "enumeration.py:_CATALOG_CACHE",
    "verify.py:THEOREMS",
    "groups.py:automorphism_group",
    "groups.py:canonical_form",
}

DICT_FACTORIES = {"dict", "defaultdict", "OrderedDict", "Counter"}
CACHE_DECORATORS = {"lru_cache", "cache"}


def _name(node):
    """The bare name of a Name, an Attribute or a Call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_no_new_module_level_dicts_or_lru_caches():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, (ast.Dict, ast.DictComp))
                or _name(node.value) in DICT_FACTORIES
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{path.name}:{_name(t)}" for t in targets]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _name(d) in CACHE_DECORATORS for d in node.decorator_list
            ):
                found.append(f"{path.name}:{node.name}")
    new = sorted(set(found) - MODULE_STATE)
    assert found and not new, new


NUMPY_MA_SCRIPT = """
import contextlib, io, sys
from bracekit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["enumerate", "10", "--cap", "10"]), main(["verify", "--orders", "1..8"])]
print(codes, "numpy.ma" in sys.modules)
"""


def test_enumerate_and_verify_never_import_numpy_ma():
    """In numpy 2.4 a bare np.unique, np.union1d or np.isin on large inputs
    imports numpy.ma, which costs a cold process 12-35 ms and 1.3 MiB;
    enumerate 10 takes 27 ms in all.  So a fresh process runs both commands
    and numpy.ma must still be unloaded."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] False\n"


ARRAY_FIELDS = {"np_op", "np_inv"}


def test_one_group_table_constructor():
    """groups.trusted_group is the one place a GroupTable is built, and no
    module writes its arrays through __dict__ (or setattr) after the fact."""
    built, written = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {
            id(node)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (path.name, f.name) == ("groups.py", "trusted_group")
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and _name(node) == "GroupTable" and id(node) not in inside:
                built.append(where)
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.Expr)):
                continue
            parts = list(ast.walk(node))
            touches_dict = any(
                isinstance(n, ast.Attribute) and n.attr == "__dict__"
                or isinstance(n, ast.Call) and _name(n) in ("setattr", "__setattr__")
                for n in parts
            )
            names = {n.value for n in parts if isinstance(n, ast.Constant)}
            names |= {k.arg for n in parts if isinstance(n, ast.Call) for k in n.keywords}
            if touches_dict and names & ARRAY_FIELDS:
                written.append(where)
    assert built == [] and written == [], (built, written)
