"""The package imports nothing but the standard library and itself, and
none of the standard library's rational or decimal arithmetic: the lattice
layer is integer-only.  Nor does it import the standard modules that are
slow to load (`dataclasses` and what it pulls in), which every command
line start-up would pay for."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "toric_hodge"
MODULES = sorted(PACKAGE.glob("*.py"))


# modules whose arithmetic the package must not use
NOT_IMPORTED = ("fractions", "decimal")
# modules that cost milliseconds to import, paid at every start-up
SLOW_TO_IMPORT = ("dataclasses", "inspect", "typing")


def _foreign_imports(path):
    """Top-level names of the absolute imports that are neither stdlib nor ours,
    or that are in NOT_IMPORTED or SLOW_TO_IMPORT."""
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
            if top in NOT_IMPORTED + SLOW_TO_IMPORT or (
                top != "toric_hodge" and top not in sys.stdlib_module_names
            ):
                foreign.append(name)
    return foreign


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_the_standard_library(path):
    assert _foreign_imports(path) == []


def test_guard_flags_a_third_party_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nfrom . import lattice\nimport sympy.abc\nfrom fractions import Fraction\n",
        encoding="utf-8",
    )
    assert _foreign_imports(module) == ["sympy.abc", "fractions"]


def test_guard_flags_a_slow_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import collections\nfrom dataclasses import dataclass\nimport typing\n",
        encoding="utf-8",
    )
    assert _foreign_imports(module) == ["dataclasses", "typing"]


def test_importing_the_package_loads_no_rational_arithmetic():
    # also through the standard library: every module, imported in a fresh process
    names = ", ".join(f"toric_hodge.{p.stem}" for p in MODULES if p.stem != "__init__")
    code = f"import sys, {names}; print(sorted(set(sys.modules) & {set(NOT_IMPORTED)!r}))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_traced_entry_points_stay_plain_functions():
    # the layer tracer of benchmark/tracing.py wraps only plain functions and
    # counts epq memo misses by the growth of a dict; a cache decorator on
    # any of these would leave it untraced without an error
    import types

    from toric_hodge import cli, fans, hilbert, hodge, wps

    for fn in (
        hilbert.build_context,
        cli.cmd_euler,
        fans.degrees_of,
        wps.wps_chi,
        wps.wps_chi_all,
        wps.wps_hodge,
        hodge.epq_c_ci,
    ):
        assert isinstance(fn, types.FunctionType), fn
    assert type(hodge._epq_memo) is dict


def test_start_up_loads_no_slow_module():
    # -S: without site, which may load some of them before the package does
    code = (
        "import sys, toric_hodge, toric_hodge.cli; "
        f"print(sorted(set(sys.modules) & {set(SLOW_TO_IMPORT)!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
