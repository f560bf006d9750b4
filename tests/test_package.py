"""Package-level contracts: export lists and the BLAS thread pin."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import matterbridge

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_every_all_lists_only_names_its_module_defines():
    modules = [matterbridge] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(matterbridge.__path__,
                                          "matterbridge.")]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__: {name}"
            home = getattr(getattr(mod, name), "__module__", mod.__name__)
            # the package itself re-exports; a module lists its own names
            assert mod is matterbridge or home == mod.__name__, (
                f"{mod.__name__}.__all__ lists {name} from {home}")


def _blas_env_after_import(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import os, matterbridge; "
            f"print(' '.join(os.environ[v] for v in {BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return out.stdout.split()


@pytest.mark.parametrize("preset, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
], ids=["unset", "preset"])
def test_import_pins_blas_threads_unless_set(preset, want):
    assert _blas_env_after_import(preset) == want
