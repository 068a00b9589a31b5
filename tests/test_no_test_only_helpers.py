"""Every function, class and method in src/ is used by src/.

A definition in peskine_lab that nothing in the package reads is either
dead or a helper kept for the tests; both belong elsewhere.  So every
function, class and method there, other than a dunder method, must be
read somewhere in src/ beyond its own definition: as a name or as an
attribute.  An import is not a use, and neither is a recursive call.
Names match by their last component, so two definitions of one name
share their uses.

ALLOWED names the exceptions, each with the reason it stays.  The guard
fails once an exception gains a use in src/ or is no longer defined.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "peskine_lab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ALLOWED = {
    "trivector.Trivector.eval3": (
        "the scalar value sigma(u, v, w), which perfbench/test_bench.py checks "
        "against the benchmark's oracle"
    ),
    "subspaces.all_subspaces": (
        "defines the reference order of `plane_table` and `rref_bases`; "
        "perfbench/test_bench.py and the tests enumerate subspaces through it"
    ),
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str, module: str = "m") -> list[str]:
    """Qualified names of the non-dunder functions, classes and methods in `source`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            here = owner
            if isinstance(child, DEFINITIONS):
                here = f"{owner}.{child.name}"
                if not _is_dunder(child.name):
                    found.append(here)
            visit(child, here)

    visit(ast.parse(source), module)
    return found


def uses(source: str) -> Counter:
    """Names read in `source` as a name or an attribute, outside any definition of that name."""
    found: Counter = Counter()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, inside | {child.name})
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name is not None and name not in inside:
                found[name] += 1
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def unused(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in `sources` (module -> text) that none of them uses."""
    read: Counter = Counter()
    for text in sources.values():
        read.update(uses(text))
    return [
        name
        for module, text in sources.items()
        for name in definitions(text, module)
        if not read[name.rsplit(".", 1)[1]]
    ]


@pytest.mark.parametrize(
    "sources, flagged",
    [
        ({"a": "def f():\n    pass\n"}, ["a.f"]),
        ({"a": "def f(n):\n    return f(n - 1)\n"}, ["a.f"]),
        ({"a": "def f():\n    pass\n", "b": "from .a import f\n"}, ["a.f"]),
        ({"a": "def f():\n    pass\n", "b": "from . import a\n\nx = a.f()\n"}, []),
        ({"a": "def f():\n    pass\n\nTABLE = {'f': f}\n"}, []),
        ({"a": "class A:\n    def g(self):\n        pass\n\n    def __eq__(self, o):\n        pass\n"}, ["a.A", "a.A.g"]),
        ({"a": "class A:\n    def g(self):\n        pass\n\nA().g()\n"}, []),
        ({"a": "def f():\n    def inner():\n        pass\n\n    return 1\n\nf()\n"}, ["a.f.inner"]),
    ],
)
def test_rule(sources, flagged):
    assert unused(sources) == flagged


def test_no_test_only_helpers_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "subspaces.py" for m in modules)
    found = unused({m.stem: m.read_text() for m in modules})
    extra = [name for name in found if name not in ALLOWED]
    assert not extra, "nothing in src/ uses: " + ", ".join(extra)
    # Every exemption is still defined, and still unused in src/.
    assert sorted(found) == sorted(ALLOWED)
