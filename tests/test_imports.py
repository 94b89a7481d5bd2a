"""The package imports nothing but the standard library and itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "toric_hodge"
MODULES = sorted(PACKAGE.glob("*.py"))


def _foreign_imports(path):
    """Top-level names of the absolute imports that are neither stdlib nor ours."""
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:  # relative imports stay inside the package
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "toric_hodge" and top not in sys.stdlib_module_names:
                foreign.append(name)
    return foreign


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_the_standard_library(path):
    assert _foreign_imports(path) == []


def test_guard_flags_a_third_party_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom . import lattice\nimport sympy.abc\n", encoding="utf-8")
    assert _foreign_imports(module) == ["sympy.abc"]
