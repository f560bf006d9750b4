"""Package-level contracts: export lists, the BLAS thread pin, and
which commands load scipy."""

import importlib
import json
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


# Runs in a fresh interpreter: the structure-only commands first, then
# one model command.  Prints what it saw as one JSON line.
_SCIPY_PROBE = """
import contextlib, io, json, os, sys
import numpy as np
from matterbridge.cli import run_cli

tmp, ckpt = sys.argv[1:]
seen = {}

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen["import"] = scipy_modules()
from matterbridge.crystal import structure_to_json
from matterbridge.datasetgen import load_property_records
from matterbridge.fixtures import fixture_root
from matterbridge.rag import EmbeddingStore

records_path = str(fixture_root() / "records.jsonl")
records = load_property_records(records_path)
store = os.path.join(tmp, "store")
EmbeddingStore(["a", "b", "c"],
               np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 3.0]])).save(store)
structure = os.path.join(tmp, "structure.json")
with open(structure, "w", encoding="utf-8") as fh:
    fh.write(structure_to_json(records[0].structure))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen["tools"] = [
        run_cli(["gen-data", "--out", os.path.join(tmp, "data"),
                 "--n", "2"]),
        run_cli(["similarity", "--records", records_path, "--ids",
                 ",".join(r.material_id for r in records[:3])]),
        run_cli(["retrieve", "--store", store, "--query-id", "a",
                 "--k", "1"]),
        run_cli(["project", "--store", store, "--out",
                 os.path.join(tmp, "xy.csv")])]
seen["after_tools"] = scipy_modules()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen["infer"] = run_cli(["infer", "--ckpt", ckpt, "--structure",
                             structure, "--task", "bandgap"])
seen["answer"] = out.getvalue()
seen["after_infer"] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


def test_only_commands_that_run_a_model_load_scipy(tmp_path):
    """scipy serves only GELU's erf, so it loads at the first GELU: the
    structure-only commands never map it, and infer still computes its
    answer with scipy's erf."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    ckpt = SRC.parent / "perfbench" / "data" / "frozen.ckpt"
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path),
                          str(ckpt)], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["tools"] == [0, 0, 0, 0]
    assert seen["after_tools"] == []
    assert seen["infer"] == 0
    assert seen["answer"] == "The bandgap of the material is 0.00000 eV.\n"
    assert seen["after_infer"]
