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

Float arithmetic on residues is exact only under the bounds that
`linalg.mat_mul` checks before it casts, so no other function names
np.float32 or np.float64: not as an `astype` or `dtype=` argument, nor
as a constructor.  This rule has no allow-list.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "peskine_lab"
PRODUCTS = ("dot", "matmul", "einsum", "tensordot")
FLOATS = ("float32", "float64")
ALLOWED: frozenset[str] = frozenset()


def numpy_attr(node) -> str | None:
    """The name of `np.name` or `numpy.name`, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


def product_form(node) -> str | None:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    return f"np.{node.attr}" if numpy_attr(node) in PRODUCTS else None


def float_form(node) -> str | None:
    return f"np.{node.attr}" if numpy_attr(node) in FLOATS else None


def offences(source: str, module: str = "m", form=product_form) -> list[tuple[int, str, str]]:
    """(line, form, qualified owner) of every node of `source` that `form` names."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            here = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                here = f"{owner}.{child.name}"
            if what := form(child):
                found.append((child.lineno, what, owner))
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


@pytest.mark.parametrize(
    "snippet",
    [
        "x = a.astype(np.float32) @ b",
        "x = a.astype(numpy.float64)",
        "x = np.float32(1) / p",
        "x = np.asarray(a, dtype=np.float64)",
        "def f(a):\n    return np.floor(a * np.float64(0.5))",
    ],
)
def test_float_rule_flags_each_cast(snippet):
    assert offences(snippet, form=float_form)


def test_float_rule_ignores_python_floats_and_ints():
    source = "r = float(hits) / trials\nx = a.astype(np.int64)\ny = np.floor(r)"
    assert not offences(source, form=float_form)


def test_float_casts_stay_in_mat_mul():
    found, owners = [], set()
    for m in sorted(SRC.glob("*.py")):
        for line, what, owner in offences(m.read_text(), m.stem, float_form):
            owners.add(owner)
            if not allowed(owner, {"linalg.mat_mul"}):
                found.append(f"{m.name}:{line}: {what} in {owner}")
    assert "linalg.mat_mul" in owners  # the rule sees the casts it permits
    assert not found, "cast residues to floats only in linalg.mat_mul: " + "; ".join(found)
