"""Every submodule imports first in a fresh interpreter, warnings as errors,
so an import cycle or an import-time warning fails here, not in a user's
first import."""

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
