"""Every submodule imports first in a fresh interpreter, warnings as errors,
so an import cycle or an import-time warning fails here, not in a user's
first import; and no exported function takes both a map and a tolerance."""

import inspect
import os
import pkgutil
import subprocess
import sys

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
