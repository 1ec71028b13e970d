"""In-memory spans around the calls into each layer of the mapping tool.

``Tracer.install`` rebinds the layer entry points that ``auto_map`` looks
up in ``repro.tools.mapper`` to span-recording wrappers, so a traced run
follows the program's own path.  Each span records its layer, operation,
parent span, start and end; a layer's self time is its span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

#: ``repro.tools.mapper`` attribute -> layer name.
MAPPER_LAYERS = {
    "estimate_chain": "estimate",
    "optimal_mapping": "solve",
    "heuristic_mapping": "greedy",
    "optimal_feasible_mapping": "feasible",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = -1
        self.case = ""

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append({
                "layer": layer, "op": self.op, "case": self.case,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None,
            })
            self._open.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[sid]["end"] = time.perf_counter()

        return traced

    def install(self, module) -> None:
        for attr, layer in MAPPER_LAYERS.items():
            setattr(module, attr, self.wrap(layer, getattr(module, attr)))

    def self_times(self, op: int) -> dict[str, float]:
        """Wall seconds of self time per layer within operation ``op``."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span["op"] != op:
                continue
            dur = span["end"] - span["start"]
            out[span["layer"]] = out.get(span["layer"], 0.0) + dur
            parent = span["parent"]
            if parent is not None:
                layer = self.spans[parent]["layer"]
                out[layer] = out.get(layer, 0.0) - dur
        return out

    def dump(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({
                    **span, "id": sid,
                    "start": span["start"] - t0, "end": span["end"] - t0,
                }) + "\n")
