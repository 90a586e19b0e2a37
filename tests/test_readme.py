"""The README's library snippets run against the package and print what
their comments say, and the package exports exactly the names they
import."""

import ast
import inspect
import pathlib
import re

import linkatlas

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _run(block):
    """(value, comment) of each expression statement of the block, each
    evaluated after the statements before it."""
    lines = block.splitlines()
    namespace = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            shown.append((value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return shown


def test_the_readme_has_two_library_snippets():
    assert len(BLOCKS) == 2


def test_quick_start_prints_what_its_comments_say():
    (sign, c1), (b, c2), (casson, c3), (moved, c4), (fit, c5) = _run(BLOCKS[0])
    assert sign == "null" and c1 == "'null'"
    assert b == 12 and c2 == "12"
    assert casson == -1 and c3 == "-1"
    assert (moved.lam, moved.nu) == (6, -4) and c4 == "(lam, nu) = (6, -4)"
    assert (fit.lam, fit.nu, fit.residual) == (-2, 6, 0) and c5 == "(-2, 6), residual 0"


def test_frame_algebra_snippet_prints_what_its_comment_says():
    ((is_eta_einstein, comment),) = _run(BLOCKS[1])
    assert is_eta_einstein is False
    assert comment.startswith("False:")


def test_the_package_exports_the_names_the_snippets_import():
    imported = {
        alias.name
        for block in BLOCKS
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "linkatlas"
        for alias in node.names
    }
    assert imported == {
        "bp_link",
        "classify_sign",
        "casson_invariant",
        "EtaConstants",
        "transverse_homothety",
        "eta_fit",
        "heisenberg_algebra",
        "MetricAlgebra",
    }
    assert set(linkatlas.__all__) == imported | {"__version__"}
    public = {
        name
        for name, obj in vars(linkatlas).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == imported


def test_the_betti_module_is_not_hidden_by_its_function():
    import linkatlas.betti as m

    assert inspect.ismodule(m)
    assert callable(m.betti)
