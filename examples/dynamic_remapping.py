#!/usr/bin/env python
"""Dynamic remapping: re-map the pipeline when its behaviour drifts.

The paper motivates fast mapping with dynamic mapping (§4): when a
program's costs drift at run time, the mapping chosen at start-up stops
being optimal.  This example streams 6000 data sets through a four-task
chain whose computation slows with every data set while communication
holds steady (differential drift).  An adaptive controller watches each
500-data-set epoch, re-solves the DP incrementally once the observed rate
leaves its dead band, and remaps only when the modelled gain repays the
remap downtime.  A monitor-only controller on the same stream is the
static baseline.

Run:  python examples/dynamic_remapping.py
"""

from repro.experiments.drift_study import MACHINE_PROCS, study_chain
from repro.sim import (
    AdaptiveController,
    ControllerConfig,
    DriftNoiseModel,
    simulate,
)
from repro.tools import format_mapping

N_DATASETS = 6_000


def run(adapt: bool):
    chain = study_chain()
    ctrl = AdaptiveController(
        chain, MACHINE_PROCS,
        config=ControllerConfig(epoch_datasets=500, remap_latency=60.0,
                                adapt=adapt),
    )
    # Execution slows by 0.02% per data set; communication does not drift.
    noise = DriftNoiseModel(seed=7, jitter=0.0, comm_interference=0.0,
                            drift=2e-4, comm_drift=0.0)
    result = simulate(chain, None, N_DATASETS, noise=noise, controller=ctrl)
    return chain, ctrl, result


def main() -> None:
    chain, ctrl, adaptive = run(adapt=True)
    for rec in ctrl.records:
        action = "REMAP " if rec.action == "remap" else "keep  "
        print(
            f"epoch {rec.epoch:2d} [{rec.start:5d}, {rec.stop:5d}): {action} "
            f"observed {rec.rate:6.4f}/s  predicted {rec.predicted:6.4f}/s  "
            f"{format_mapping(rec.mapping, chain)}"
        )
    _, _, static = run(adapt=False)
    gain = static.makespan / adaptive.makespan
    print(f"\nremaps: {ctrl.remap_count}, DP solves: {ctrl.resolves}, "
          f"stream time vs never remapping: {gain:.2f}x faster")


if __name__ == "__main__":
    main()
