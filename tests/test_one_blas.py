"""The CLI paths run every dense matrix product and eigensolver through
scipy.linalg.  numpy and scipy each load their own OpenBLAS, each with its
own worker threads; a numpy product leaves numpy's pool spinning while
scipy's next threaded call wants the same cores (see the numkernel module
docstring).  Vector calls (np.vdot, np.linalg.norm) may stay: OpenBLAS runs
level-1 routines single-threaded at these lengths."""

import ast
import inspect
import textwrap

import pytest

from energynet import cli, energy, multop, numkernel

CLI_PATH = [
    numkernel.top_eigpair,
    numkernel.spd_solve,
    numkernel.sqrtm_psd,
    numkernel.psd_check,
    numkernel.default_psd_tol,
    energy.kernel_columns,
    energy._kernel,
    energy._unit_solve,
    energy._kernel_diagonal,
    energy._gram_and_columns,
    energy._first_mismatch,
    multop._nested_levels,
    multop._sufficiency_bound,
    multop._s,
    multop.s_matrix,
    multop.analyze,
    cli.cmd_gram,
    cli.cmd_mult,
]
PRODUCTS = {"dot", "matmul", "inner", "tensordot", "einsum"}
LINALG_ALLOWED = {"np.linalg.norm", "np.linalg.LinAlgError"}


def numpy_blas_calls(source):
    """'line: call' for each matrix product or np.linalg solver in source,
    in source order."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, node.col_offset, "@"))
        elif isinstance(node, ast.Attribute):
            name = ast.unparse(node)
            if (name.startswith("np.linalg.") and name not in LINALG_ALLOWED
                    or node.attr in PRODUCTS):
                found.append((node.lineno, node.col_offset, name))
    return [f"{line}: {what}" for line, _, what in sorted(found)]


@pytest.mark.parametrize("func", CLI_PATH, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_cli_path_has_no_numpy_blas_call(func):
    assert numpy_blas_calls(inspect.getsource(func)) == []


def test_the_guard_sees_each_kind_of_call():
    source = """
    def f(a, b, x):
        y = a @ b
        y @= b
        w, q = np.linalg.eigh(a)
        z = np.linalg.solve(a, x) + np.dot(a, x) + np.matmul(a, b) + a.dot(x)
        return np.vdot(x, x), np.linalg.norm(x), np.linalg.LinAlgError
    """
    assert numpy_blas_calls(source) == [
        "3: @", "4: @", "5: np.linalg.eigh", "6: np.linalg.solve", "6: np.dot",
        "6: np.matmul", "6: a.dot",
    ]
