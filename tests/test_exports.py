import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gbhfem

MODULES = ["gbhfem"] + [f"gbhfem.{m.name}" for m in pkgutil.iter_modules(gbhfem.__path__)]

#: Scheme names and space classes; the space object alone carries the
#: difference between the schemes.
SCHEME_NAMES = {"cr", "dg"}
SPACE_CLASSES = {"CRSpace", "DGSpace"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def _scheme_branches(tree):
    """Lines comparing with a scheme name or testing for a space class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(c, ast.Constant) and c.value in SCHEME_NAMES
                   for op in operands for c in ast.walk(op)):
                yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            names = {getattr(c, "id", None) or getattr(c, "attr", None)
                     for c in ast.walk(node.args[1])}
            if names & SPACE_CLASSES:
                yield node.lineno


def test_guard_sees_tag_comparisons_and_space_tests():
    code = ('a = s.kind == "dg"\nb = "cr" != s\nc = t in ("cr", "dg")\n'
            'd = isinstance(s, (CRSpace, x.DGSpace))\ne = {"cr": 1}\nf = s == "crx"\n')
    assert list(_scheme_branches(ast.parse(code))) == [1, 2, 3, 4]


def test_no_scheme_branches_in_the_package():
    # the space classes are the only place the schemes differ; the scheme
    # name is looked up once, in the ``mms.SPACES`` registry
    found = [f"{path.name}:{line}"
             for path in sorted(Path(gbhfem.__file__).parent.glob("*.py"))
             for line in _scheme_branches(ast.parse(path.read_text()))]
    assert found == []
