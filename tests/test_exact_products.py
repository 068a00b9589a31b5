"""Every matrix product in src/ goes through `linalg.mat_mul`.

A bare `@`, `np.dot`, `np.matmul`, `np.einsum` or `np.tensordot` on int64
residues sums products of up to (p - 1)^2 each and wraps once that sum
passes 2^63: at p = 2^31 - 1 four terms are enough.  `linalg.mat_mul`
picks an exact path from the bound p^2 * inner, so outside linalg.py no
module of peskine_lab forms such a product itself.

The allow-list is empty: no function is exempt, not even one whose
primes keep every sum small.  A product that must stay raw would be
named in ALLOWED, and the guard fails once such a name is no longer
needed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "peskine_lab"
PRODUCTS = ("dot", "matmul", "einsum", "tensordot")
ALLOWED: frozenset[str] = frozenset()


def offences(source: str, module: str = "m") -> list[tuple[int, str, str]]:
    """(line, form, qualified owner) of every raw product in `source`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            here = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                here = f"{owner}.{child.name}"
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found.append((child.lineno, "@", owner))
            elif (
                isinstance(child, ast.Attribute)
                and child.attr in PRODUCTS
                and isinstance(child.value, ast.Name)
                and child.value.id in ("np", "numpy")
            ):
                found.append((child.lineno, f"np.{child.attr}", owner))
            visit(child, here)

    visit(ast.parse(source), module)
    return found


def allowed(owner: str, names=ALLOWED) -> bool:
    return any(owner == name or owner.startswith(name + ".") for name in names)


@pytest.mark.parametrize(
    "snippet",
    [
        "c = a @ b % p",
        "a @= b",
        "c = np.dot(a, b) % p",
        "c = np.matmul(a, b) % p",
        "c = np.einsum('ij,jk->ik', a, b) % p",
        "c = numpy.tensordot(a, b, axes=1) % p",
        "def f(a, b):\n    return (a @ b) % p",
    ],
)
def test_rule_flags_each_product_form(snippet):
    assert offences(snippet)


def test_rule_ignores_elementwise_work():
    assert not offences("c = a * b % p\nd = linalg.mat_mul(a, b, p)\ns = (a * b).sum()")


def test_allow_list_covers_only_its_function():
    source = "def k3_member(a, b):\n    return a @ b\n\ndef other(a, b):\n    return a @ b\n"
    owners = [owner for _, _, owner in offences(source, "loci")]
    assert owners == ["loci.k3_member", "loci.other"]
    names = {"loci.k3_member"}
    assert [allowed(o, names) for o in owners] == [True, False]
    assert not allowed("loci.k3_member_fast", names)
    assert not any(allowed(o) for o in owners)


def test_products_go_through_mat_mul():
    modules = sorted(SRC.glob("*.py"))
    assert any(m.name == "linalg.py" for m in modules)
    found, exempt = [], set()
    for m in modules:
        if m.name == "linalg.py":
            continue
        for line, what, owner in offences(m.read_text(), m.stem):
            if allowed(owner):
                exempt.add(owner)
            else:
                found.append(f"{m.name}:{line}: {what} in {owner}")
    assert not found, "multiply through linalg.mat_mul instead: " + "; ".join(found)
    # Every exemption is still needed.
    assert exempt == ALLOWED
