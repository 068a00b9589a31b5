"""Every exhaustive enumeration in src/ goes through `scan`.

Outside scan.py, the modules of peskine_lab may not build point grids
with `np.indices` or `np.meshgrid`, nor decode a counter digit by digit
with a floor division by the modulus p (`// p`, `//= p`, `divmod(., p)`).
Those jobs belong to `scan.affine_image_chunks`, the one enumerator behind
`scan.affine_chunks` and `scan.projective_chunks`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "peskine_lab"


def _is_p(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "p"


def offences(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("indices", "meshgrid")
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and _is_p(node.right):
            found.append((node.lineno, "// p"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv) and _is_p(node.value):
            found.append((node.lineno, "//= p"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "divmod"
            and len(node.args) == 2
            and _is_p(node.args[1])
        ):
            found.append((node.lineno, "divmod(., p)"))
    return found


@pytest.mark.parametrize(
    "snippet",
    [
        "grid = np.indices((p, p, p))",
        "nodes = np.meshgrid(*axes, indexing='ij')",
        "idx = idx // p",
        "rem //= p",
        "q, r = divmod(idx, p)",
    ],
)
def test_rule_flags_grid_and_digit_enumerations(snippet):
    assert offences(snippet)


def test_rule_ignores_other_divisions():
    assert not offences("n = (p ** (d + 1) - 1) // (p - 1)\nx = a % p\nk = chunk // size")


def test_enumerations_go_through_scan():
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "scan.py" for m in modules)
    found = [
        f"{m.name}:{line}: {what}"
        for m in modules
        if m.name != "scan.py"
        for line, what in offences(m.read_text())
    ]
    assert not found, "enumerate through scan.affine_image_chunks instead: " + "; ".join(found)
