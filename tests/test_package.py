"""The package namespace: `liabnet.sim` and its exports load on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import liabnet

SRC = Path(__file__).resolve().parent.parent / "src"
SIM_EXPORTS = (
    "HourglassGraph", "LayeredGraphSpec", "SimConfig", "SimError", "SimStats",
    "generate_hourglass", "gini", "run_simulation",
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_import_loads_no_numpy_or_process_pool(flags):
    # a fresh interpreter, since this one may have loaded liabnet.sim already;
    # the verdict is the exit code, which python -O leaves alone
    script = (
        "import sys\n"
        "import liabnet, liabnet.cli\n"
        "loaded = [m for m in ('numpy', 'multiprocessing', 'concurrent.futures')\n"
        "          if m in sys.modules]\n"
        "sys.exit('loaded: ' + ', '.join(loaded) if loaded else 0)\n"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_sim_exports_resolve_to_the_sim_module():
    assert liabnet.run_simulation is liabnet.sim.run_simulation
    from liabnet import SimError

    assert SimError is liabnet.sim.SimError
    for name in SIM_EXPORTS:
        assert getattr(liabnet, name) is getattr(liabnet.sim, name)


def test_dir_lists_the_sim_names():
    names = dir(liabnet)
    assert set(SIM_EXPORTS) <= set(names)
    assert "sim" in names
    assert "wstar_dp" in names


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        liabnet.no_such_name
    assert not hasattr(liabnet, "summary_dict")
