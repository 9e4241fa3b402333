"""Where acceldse may call BLAS.

`tests/test_fingerprint.py` pins the cost model's output bits, and
perfbench compares most workloads' digests on any machine.  Both assume
that the cost model's arithmetic is elementwise IEEE float64: a BLAS
product may sum in another order, or with fused multiply-adds, on another
CPU or BLAS build.  So matrix products stay in the few functions whose
outputs README names as machine-dependent.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "acceldse"

# Numpy's names that reach BLAS or LAPACK.
BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "linalg"}
# (module, function qualname): the generator net.
ALLOWED = {
    ("hwsearch.py", "GeneratorNet.forward"),
    ("hwsearch.py", "GeneratorNet.backward"),
}


def blas_uses(tree):
    """`(qualname, line, what)` of each matrix product or BLAS name in `tree`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            what = node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in BLAS_NAMES:
            what = node.func.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {part for alias in node.names for part in alias.name.split(".")}
            names |= set((getattr(node, "module", None) or "").split("."))
            what = next(iter(sorted(names & BLAS_NAMES)), None)
        if what is not None:
            found.append((scope, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_blas_only_in_the_generator_net():
    offending = [
        f"{path.name}:{line} {what} in {scope or '<module>'}"
        for path in sorted(SRC.glob("*.py"))
        for scope, line, what in blas_uses(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, scope) not in ALLOWED
    ]
    assert not offending, (
        "tests/test_fingerprint.py assumes the cost model uses no BLAS, whose rounding may "
        f"differ across CPUs and BLAS builds; matrix products outside {sorted(ALLOWED)}: "
        f"{offending}")


def test_the_guard_sees_each_form():
    source = """
import numpy.linalg
from numpy import einsum
def f(a, b, inner):
    a @= b
    return a @ b, np.dot(a, b), a.dot(b), matmul(a, b), np.linalg.norm(a), inner + 1
"""
    whats = [what for _, _, what in blas_uses(ast.parse(source))]
    assert whats == ["linalg", "einsum", "@", "@", "dot", "dot", "matmul", "linalg"]
