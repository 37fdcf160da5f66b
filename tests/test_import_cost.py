"""Import boundaries: the CLI and the analytic explore path stay NumPy-free.

``python -m repro.cli explore`` runs only the analytic timing model, so it
must not pay for NumPy, the serving stack, the baselines or the functional
emulators; neither must a sharded SUMMA plan, whose overhead factor is a
closed form.  Checks on ``sys.modules`` run in a fresh interpreter, because
this test process has imported everything already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gemm.precision import Precision

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_PACKAGES = ("repro", "repro.core", "repro.gemm", "repro.mmae", "repro.mem", "repro.analysis")


def loaded_after(code: str) -> set:
    """The module names a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_import_and_parser_load_no_numpy_serve_or_functional_models():
    loaded = loaded_after("import repro.cli\nrepro.cli.build_parser()")
    for module in ("numpy", "multiprocessing", "repro.serve", "repro.core.maco",
                   "repro.baselines"):
        assert module not in loaded


def test_catalog_explore_runs_without_numpy():
    loaded = loaded_after(
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.cli.main(['explore', '--sample', 'lhs', '--points', '8',\n"
        "                           '--workload', 'llama-7b@decode', '--jobs', '1']) == 0"
    )
    assert "repro.core.explorer" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv", [
    ["explore", "--sample", "lhs", "--points", "8", "--workload", "llama-7b@decode",
     "--parallel", "tp2d:2x2", "--jobs", "1"],
    ["parallel", "--parallel", "tp2d:2x2", "--nodes", "4"],
])
def test_sharded_plans_run_without_numpy(argv):
    loaded = loaded_after(
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert repro.cli.main({argv!r}) == 0"
    )
    assert "repro.parallel.summa" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_and_are_listed(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listing


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="not_an_export"):
        module.not_an_export


@pytest.mark.parametrize("precision", list(Precision))
def test_accumulate_bytes_matches_the_accumulator_dtype(precision):
    assert precision.accumulate_bytes == precision.accumulate_dtype.itemsize
