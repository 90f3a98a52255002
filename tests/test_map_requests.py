"""Package code requests faces' maps in one place, pose.map_chunks.

Which faces' maps are held at once is a policy of that one loop; a
``maps_for`` call anywhere else would be a second policy. This AST check
finds every call of a ``maps_for``, by name or as an attribute. A map
source's ``def maps_for`` is its definition, and passing ``source.maps_for``
along is a reference; neither is a call.
"""

import ast
import os

from test_imports import MODULES, PACKAGE

REQUESTER = ("pose.py", "map_chunks")


def maps_for_callers(sources: dict) -> list:
    """(module, top-level definition) of each maps_for call in sources,
    sorted, one entry per call; "<module>" for a call at module level."""
    out = []
    for m, src in sources.items():
        for top in ast.parse(src).body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == "maps_for"
                        or getattr(node.func, "attr", None) == "maps_for"):
                    out.append((m, name))
    return sorted(out)


def test_only_the_chunk_loop_requests_maps():
    sources = {}
    for m in MODULES:
        with open(os.path.join(PACKAGE, m), encoding="utf-8") as fh:
            sources[m] = fh.read()
    assert maps_for_callers(sources) == [REQUESTER]


def test_calls_not_definitions_or_references():
    sources = {
        "a.py": "class Source:\n    def maps_for(self, s):\n        return s\n",
        "b.py": "def f(src, faces):\n    return g(faces, src.maps_for)\n\n\n"
                "def h(src, s):\n    return (lambda: src.maps_for(s))()\n\n\n"
                "class K:\n    def m(self, maps_for):\n        return maps_for(1)\n\n\n"
                "maps_for(2)\n",
    }
    assert maps_for_callers(sources) == [("b.py", "<module>"), ("b.py", "K"), ("b.py", "h")]
