"""Every submodule imports first in a fresh interpreter, warnings as errors,
so an import cycle or an import-time warning fails here, not in a user's
first import; no exported function takes both a map and a tolerance;
queries reach an oracle only by the package's few routes; and a spec
map's stack function is set and called in one place each."""

import ast
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import grasswig

MODULES = sorted(info.name for info in pkgutil.iter_modules(grasswig.__path__))


def test_the_package_has_its_modules():
    assert {"angles", "matio", "projections", "reconstruction"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_first_in_a_fresh_interpreter(module):
    src = os.path.dirname(os.path.dirname(grasswig.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import grasswig.{module}"], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_no_exported_callable_takes_both_a_map_and_a_tolerance():
    # a function of a map reads the map's own phi.tol: a second tolerance
    # could disagree with the one its outputs are validated at
    both = []
    for name in dir(grasswig):
        try:
            parameters = inspect.signature(getattr(grasswig, name)).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        if {"phi", "tol"} <= set(parameters):
            both.append(name)
    assert both == []


def test_the_oracle_is_queried_only_by_its_routes():
    # reconstruction's every query goes by _blocks, so whatever counts or
    # schedules the queries has one place to do it
    routes = {"reconstruction._blocks", "maps.RankNMap.evaluate_many", "extension.extend_orthonormal"}
    callers = set()

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "_outputs":
                    callers.add(scope)
                scan(child, scope)

    for path in Path(grasswig.__file__).parent.glob("*.py"):
        scan(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers <= routes and "reconstruction._blocks" in callers, sorted(callers - routes)


def test_a_spec_maps_stack_function_is_called_only_by_the_block_loop():
    # RankNMap._outputs cuts every stack into blocks before a spec map sees
    # it, so that loop is the one memory bound of every kind
    calls, assigned = set(), set()

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                scan(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "_stack":
                    calls.add(scope)
                if isinstance(child, ast.Attribute) and child.attr == "_stack" and isinstance(child.ctx, ast.Store):
                    assigned.add(scope)
                scan(child, scope)

    for path in Path(grasswig.__file__).parent.glob("*.py"):
        scan(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert calls == {"maps.RankNMap._outputs"}, sorted(calls)
    assert assigned == {"maps.RankNMap.__init__", "maps.instantiate"}, sorted(assigned)
