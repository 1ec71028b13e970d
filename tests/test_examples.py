"""Every example must run as a script and print its headline output."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "DP optimum" in out
    assert "speedup over data parallel" in out
    assert "simulator" in out


def test_fft_hist_mapping():
    out = _run("fft_hist_mapping.py")
    assert "fft-hist-256/message" in out
    assert "fft-hist-512/message" in out
    assert "agree=True" in out
    assert "8x8 grid" in out


def test_radar_latency():
    out = _run("radar_latency.py")
    assert "throughput-optimal" in out
    assert "latency-optimal" in out
    assert "Pareto frontier" in out
    assert "tracker replicable: False" in out


def test_custom_workload():
    out = _run("custom_workload.py")
    assert "video-analytics" in out
    assert "profiled 8 runs" in out
    assert "measured" in out


def test_dynamic_remapping():
    out = _run("dynamic_remapping.py")
    assert "REMAP" in out
    assert "keep" in out
    assert "vs never remapping" in out


def test_stereo_forkjoin():
    out = _run("stereo_forkjoin.py")
    assert "FJGraph" in out
    assert "analytic bound" in out
    assert "simulation-refined" in out
    assert "rectify0" in out
