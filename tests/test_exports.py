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


def _address_reads(tree):
    """Lines that read ``.ctypes`` or ``.flags.writeable``.  Setting
    ``writeable = False`` (a shared table made read-only) is not a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr == "ctypes" or (node.attr == "writeable"
                                         and getattr(node.value, "attr", None) == "flags"):
                yield node.lineno


def test_guard_sees_address_and_writeable_reads():
    code = ("a = x.ctypes.data\nb = x.flags.writeable\nif not y.flags.writeable: pass\n"
            "x.flags.writeable = False\nc = x.flags.c_contiguous\n")
    assert sorted(_address_reads(ast.parse(code))) == [1, 2, 3]


def test_no_address_or_writeable_reads_in_the_package():
    # callers bind the forcing and the exact solution to their points
    # (``f.on``, ``ManufacturedCase.on``); nothing is decided from an
    # array's memory address or its writeable flag
    found = [f"{path.name}:{line}"
             for path in sorted(Path(gbhfem.__file__).parent.glob("*.py"))
             for line in _address_reads(ast.parse(path.read_text()))]
    assert found == []


#: The forms functions that only the spaces call: the solver and the
#: studies reach the scheme's operators through the space object.
SPACE_ONLY_FORMS = {"assemble_stiffness_cr", "sipg_matrices", "dirichlet_rhs_dg",
                    "dg_boundary_values", "upwind_residual", "add_upwind_jacobian"}


def _space_only_names(tree):
    """Lines naming a ``SPACE_ONLY_FORMS`` function: a name, an
    attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        else:
            name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in SPACE_ONLY_FORMS:
            yield node.lineno


def test_only_the_spaces_name_the_scheme_forms():
    code = ("a = forms.dirichlet_rhs_dg(s, g, 1)\nfrom .forms import (x,\n    sipg_matrices)\n"
            "b = upwind_residual\nc = s.nitsche(g, 1)\nd = 'dg_boundary_values'\n")
    assert sorted(_space_only_names(ast.parse(code))) == [1, 3, 4]
    found = [f"{path.name}:{line}"
             for path in sorted(Path(gbhfem.__file__).parent.glob("*.py"))
             if path.stem not in ("forms", "space_cr", "space_dg")
             for line in _space_only_names(ast.parse(path.read_text()))]
    assert found == []
