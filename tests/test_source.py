"""Static checks on the source tree: every error class is raised or
caught, no module imports a name it never uses, an import kept unused
is one perfbench traces, and the package states one version."""

import ast
import pathlib
import re

from linkatlas.catalog import TOOL_VERSION

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "linkatlas").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names(node):
    """Names of the classes an exception expression or handler type
    names: a class, a call of one, or a tuple of either."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    if isinstance(node, ast.Call):
        node = node.func
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_error_class_is_raised_or_caught():
    # a class that no code raises or catches tells no caller anything
    # its message does not
    defined = {
        node.name
        for node in _tree(ROOT / "src" / "linkatlas" / "errors.py").body
        if isinstance(node, ast.ClassDef)
    }
    used = set()
    for path in SRC:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names(node.type)
    assert defined == {
        "AtlasError", "InvalidInput", "NotQuasiSmooth", "InconsistentInvariants", "BoundsTooLarge"
    }
    assert defined <= used, sorted(defined - used)


def _unused_imports(text):
    """(line, name) of each import of text that the module never reads.
    A name in __all__ is read, and so is one whose alias line carries
    "# noqa: F401", the mark of an import kept on purpose."""
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, bound))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        "%s:%d %s" % (path.name, line, name)
        for path in SRC
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def _traced_names():
    """The keys of perfbench/tracer.py's WRAPS, read from its source."""
    tree = _tree(ROOT / "perfbench" / "tracer.py")
    (wraps,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets)
    ]
    return set(ast.literal_eval(wraps))


def test_each_kept_import_is_a_name_perfbench_traces():
    # an import kept though its module never reads it is there for the
    # tracer alone, so it may go once WRAPS drops its name
    kept = set()
    for path in SRC:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                kept |= {
                    "%s.%s" % (path.stem, alias.asname or alias.name)
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                }
    assert kept
    assert sorted(kept - _traced_names()) == []


def test_the_unused_import_check_sees_an_unused_name():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,\n"
        "    prod,  # noqa: F401\n"
        "    sqrt as root,\n"
        ")\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "print(gcd)\n"
    )
    assert _unused_imports(text) == [(2, "os"), (5, "lcm"), (7, "root")]


def test_the_package_states_one_version():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    (version,) = re.findall(r'^version\s*=\s*"([^"]*)"', project, re.M)
    assert TOOL_VERSION == version
