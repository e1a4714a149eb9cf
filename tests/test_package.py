"""The package namespace: every public name resolves lazily to the object its
submodule defines."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import gtsou

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")


def test_every_public_name_resolves_to_its_submodule():
    for name in gtsou.__all__:
        module = importlib.import_module(f"gtsou.{gtsou._SOURCE_OF[name]}")
        assert getattr(gtsou, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(gtsou.__all__) <= set(dir(gtsou))
    assert gtsou.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gtsou import *", namespace)
    assert set(gtsou.__all__) <= set(namespace)
    assert namespace["fit"] is gtsou.estimation.fit


def test_functions_keep_their_names_over_same_named_submodules():
    # gtsou.cumulants and gtsou.frft are functions, as are the names their
    # submodules bind, even after the submodules have been imported
    for name in ("cumulants", "frft"):
        module = importlib.import_module(f"gtsou.{name}")
        assert getattr(gtsou, name) is getattr(module, name)
        assert callable(getattr(gtsou, name))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gtsou.no_such_name


def test_submodules_import_from_the_package():
    from gtsou import cli, estimation, ou

    assert cli.main is importlib.import_module("gtsou.cli").main
    assert estimation.fit is gtsou.fit
    assert ou.simulate_path is gtsou.simulate_path


def _scipy_imports(node, owner=None):
    """{(function, scipy module)} for every import of scipy under an ast node,
    the function being the innermost one around the import (None at module
    level)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    names = []
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [f"scipy.{a.name}" if node.module == "scipy" else node.module
                 for a in node.names]
    found = {(owner, n) for n in names if n.split(".")[0] == "scipy"}
    for child in ast.iter_child_nodes(node):
        found |= _scipy_imports(child, owner)
    return found


def _scipy_import_sites():
    """{("submodule.function", scipy module)} over the package's source."""
    src = os.path.join(ROOT, "src", "gtsou")
    sites = set()
    for filename in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, filename)) as fh:
            tree = ast.parse(fh.read())
        sites |= {(f"{filename[:-3]}.{owner}", module)
                  for owner, module in _scipy_imports(tree)}
    return sites


def test_scipy_is_imported_only_at_its_allowed_sites():
    # C4's independent reference quadrature and the incomplete gammas at
    # orders s > 0; every hot path (inversion, quantiles, Levy densities at
    # s <= 0, the fit and the simulation) is numpy
    assert _scipy_import_sites() == {
        ("exponents.sd_exponent_unit_form", "scipy.integrate"),
        ("special.upper_incomplete_gamma", "scipy.special"),
        ("special.lower_incomplete_gamma", "scipy.special"),
    }


def test_package_modules_load_no_numpy_polynomial():
    # the Gauss-Legendre rule is written out: no route imports numpy.polynomial,
    # neither at import nor when the likelihood builds its spreading kernel,
    # whose transform takes the same rule (_GL8_NODES, _GL8_WEIGHTS)
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, numpy as np, gtsou.cli, gtsou.estimation, gtsou.ou; "
                               "from gtsou import EQUITY_PARAMS as p; "
                               "x = np.linspace(-1.0, 1.0, 50); "
                               "gtsou.estimation.log_likelihood(x, p, gtsou.fit_grid(x, p)); "
                               "print(sorted(m for m in sys.modules "
                               "if m.startswith('numpy.polynomial')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # and no source file reaches numpy.polynomial by attribute or import
    src = os.path.join(src, "gtsou")
    for filename in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, filename)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            assert not any("polynomial" in name or name == "leggauss" for name in names), \
                (filename, node.lineno)


def _load_benchmark_module(name):
    # by path under a name of its own: benchmarks/ is not a package, and must
    # not shadow anything on sys.path (dataclasses look the module up there)
    spec = importlib.util.spec_from_file_location(
        f"gtsou_benchmark_{name}", os.path.join(BENCHMARKS, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve():
    # benchmarks/tracing.py wraps each (module, function) of TARGETS by name,
    # so a dropped or renamed one would break only the benchmark's traced run
    tracing = _load_benchmark_module("tracing")
    assert tracing.TARGETS
    for mod_name, fn_name, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), fn_name, None)), \
            f"{mod_name}.{fn_name}"


@pytest.mark.parametrize("name", ["fit", "simulate_density"])
def test_benchmark_workloads_run_at_smoke_size(name, tmp_path):
    # every operation of benchmarks/workloads.py, at its smoke size: a call
    # whose name, keyword or argument the library no longer takes raises
    workloads = _load_benchmark_module("workloads")
    records, _ = workloads.run_pass(workloads.WORKLOADS[name](3, True, str(tmp_path)))
    assert records
    assert [r.error for r in records] == [None] * len(records)
    if name != "fit":  # the smoke fit stops after two iterations, unconverged
        assert [r.check for r in records] == [None] * len(records)
