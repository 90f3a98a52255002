"""Every top-level function and class of the package is used by package code.

A definition that only tests, the benchmark's tracer or a re-export in
``__init__`` keep alive is dead code in the package: an import is not a
use, and neither is a definition's use of itself. One kept on purpose goes
on ALLOWED, with its reason.
"""

import ast
import os

import pytest

from test_imports import MODULES, PACKAGE, _used_names

ALLOWED = {
    # facebench/tracing.py wraps these by their name
    ("cascade.py", "fit_node"): "tracer target",
    ("features.py", "gen_candidates"): "tracer target",
    ("pose.py", "fit_pose"): "tracer target",
    ("pose.py", "robust_init"): "tracer target",
    ("pose.py", "score_shape"): "tracer target",
    # the benchmark's file check compares written maps with its raster
    ("heatmaps.py", "synthesize"): "tracer target and the benchmark",
    # tests/test_acceptance.py imports these
    ("heatmaps.py", "synthesize_from_shape"): "acceptance tests",
    ("pose.py", "rotation_angle"): "acceptance tests",
    # serving one face: package code runs predict_faces
    ("cascade.py", "predict"): "acceptance tests, the benchmark and fa.predict",
    # criterion 6 checks the stopping rule in its sequence form;
    # train_cascade asks the per-stage stops_at
    ("cascade.py", "stop_stage"): "criterion 6",
    # criterion 9 scores one face with it; package code scores through
    # nme_percent
    ("metrics.py", "nme"): "criterion 9",
    # whether to delete it, and drop scipy, is an open decision (ROADMAP)
    ("heatmaps.py", "smooth"): "open decision",
}


def unreferenced(sources: dict) -> list:
    """(module, name) of each top-level def or class in sources that no
    module's code names outside that definition itself."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    used = {m: _used_names(t) for m, t in trees.items()}
    out = []
    for m, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if not (node.name in _used_names(rest)
                    or any(node.name in u for k, u in used.items() if k != m)):
                out.append((m, node.name))
    return sorted(out)


@pytest.fixture(scope="module")
def package_unreferenced():
    sources = {}
    for m in MODULES:
        with open(os.path.join(PACKAGE, m), encoding="utf-8") as fh:
            sources[m] = fh.read()
    return unreferenced(sources)


def test_every_definition_is_referenced(package_unreferenced):
    assert [d for d in package_unreferenced if d not in ALLOWED] == []


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_allowed_definitions_are_still_unreferenced(package_unreferenced, module, name):
    assert (module, name) in package_unreferenced


def test_an_import_or_self_reference_is_not_a_use():
    sources = {
        "a.py": "def f():\n    return f\n\n\ndef g():\n    pass\n\n\nclass C:\n"
                "    def copy(self) -> 'C':\n        return C()\n",
        "b.py": "from .a import f, g\n\n\ndef h():\n    return g()\n",
        "__init__.py": "from .a import C\nfrom .b import h\n",
    }
    assert unreferenced(sources) == [("a.py", "C"), ("a.py", "f"), ("b.py", "h")]


def test_a_field_or_assignment_of_the_same_name_is_not_a_use():
    sources = {
        "a.py": "def nme():\n    pass\n\n\ndef score():\n    pass\n",
        "b.py": "class Report:\n    nme: float\n\n\ndef run():\n    score = 1\n"
                "    return Report\n\n\nrun()\n",
    }
    assert unreferenced(sources) == [("a.py", "nme"), ("a.py", "score")]
