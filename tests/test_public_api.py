"""The public API contract: every name each package exports must resolve,
and the headline entry points must be importable from the package roots."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.machine",
    "repro.sim",
    "repro.estimate",
    "repro.workloads",
    "repro.fjgraph",
    "repro.tools",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} has no __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"


def test_headline_entry_points():
    from repro.core import optimal_mapping, greedy_assignment  # noqa: F401
    from repro.machine import iwarp64_message  # noqa: F401
    from repro.sim import simulate  # noqa: F401
    from repro.estimate import estimate_chain  # noqa: F401
    from repro.tools import auto_map  # noqa: F401
    from repro.workloads import fft_hist  # noqa: F401


def test_version_is_set():
    import repro

    assert repro.__version__


def test_experiment_modules_have_run_and_render():
    import repro.experiments as ex

    for name in ex.__all__:
        if name == "common":
            continue
        mod = getattr(ex, name)
        if name == "theorems":
            assert hasattr(mod, "run_theorem1") and hasattr(mod, "render")
        else:
            assert hasattr(mod, "run"), name
            assert hasattr(mod, "render"), name


def test_experiments_load_on_first_access():
    """Importing one study loads none of the others (PEP 562
    ``__getattr__``); attribute access still reaches every module."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys; from repro.experiments import drift_study; "
        "import repro.experiments as ex; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.'))); "
        "print(ex.fig1.__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, fig1 = proc.stdout.splitlines()
    assert "'repro.experiments.drift_study'" in loaded
    assert "fig1" not in loaded and "table1" not in loaded
    assert fig1 == "repro.experiments.fig1"
