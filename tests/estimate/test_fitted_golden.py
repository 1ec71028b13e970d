"""Golden fitted chains: §5 profiling and fitting are byte-stable.

``estimate_chain`` profiles a chain on the event engine under jitter and
transfer interference, then fits its cost models.  The committed fixture
pins, for two of the paper's applications at a fixed noise seed, every
profiled sample and the fitted chain's ``to_dict()``.  Floats go through
``json`` (shortest round-trip ``repr``), so any change to the draw order,
the per-operation durations or the sample means shows up as a mismatch.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src:. python tests/estimate/test_fitted_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.estimate import estimate_chain
from repro.machine import presets
from repro.sim import NoiseModel
from repro.workloads import fft_hist, radar

GOLDEN = Path(__file__).parent / "golden" / "fitted_chains.json"

CASES = {
    "fft-hist-256": lambda: fft_hist(256, presets.iwarp64_message()),
    "radar": lambda: radar(presets.iwarp64_message()),
}


def _samples(groups: dict) -> dict:
    return {str(k): [list(s) for s in v] for k, v in sorted(groups.items())}


def _fingerprint(name: str) -> dict:
    w = CASES[name]()
    est = estimate_chain(w.chain, w.machine.total_procs,
                         w.machine.mem_per_proc_mb, noise=NoiseModel(seed=11))
    prof = est.profile
    return {
        "exec_samples": _samples(prof.exec_samples),
        "icom_samples": _samples(prof.icom_samples),
        "ecom_samples": _samples(prof.ecom_samples),
        "memory_samples": _samples(prof.memory_samples),
        "fitted_chain": est.fitted_chain.to_dict(),
    }


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_fitted_chain_matches_golden(name):
    assert GOLDEN.exists(), (
        f"golden fixture missing; regenerate with "
        f"`PYTHONPATH=src:. python {Path(__file__).name}`"
    )
    golden = json.loads(GOLDEN.read_text())
    assert _dumps(_fingerprint(name)) == _dumps(golden[name])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(_dumps({name: _fingerprint(name) for name in sorted(CASES)}))
    print(f"wrote {GOLDEN}")
