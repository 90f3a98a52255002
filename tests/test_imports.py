"""No package module imports a name it never uses.

There is no linter in the toolchain, so this AST check keeps dead imports
from coming back. A name imported only to be re-exported or looked up by
name from outside the module goes on ALLOWED, with its reason.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "facealign")

ALLOWED = {
    # facebench/tracing.py wraps these by their name in these modules
    ("cascade.py", "gen_candidates"),
    ("cascade.py", "robust_init"),
    ("synthetic.py", "robust_init"),
    ("synthetic.py", "synthesize"),
}
# __init__ imports are the package's public names
REEXPORTING = {"__init__.py"}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names read anywhere in tree: assigning a name, such as a dataclass
    field ``nme: float``, is not a use of it."""
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as -> "Shape"
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(name for name in set(_imported_names(tree)) if name not in used)


MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


@pytest.mark.parametrize("module", [m for m in MODULES if m not in REEXPORTING])
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert [n for n in unused if (module, n) not in ALLOWED] == []


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_allowed_names_are_still_imported_and_unused(module, name):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert name in unused_imports(fh.read())


def test_detects_an_unused_import():
    source = "import numpy as np\nfrom .a import b, c\nfrom x import y\n\ndef f() -> 'y':\n    return b\n"
    assert unused_imports(source) == ["c", "np"]
