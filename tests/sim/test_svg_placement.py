"""Tests for SVG trace export and placement-aware communication."""

import pytest

from repro.core import Mapping, ModuleSpec, SimulationError
from repro.machine import Rect
from repro.sim import TraceLog, simulate, trace_to_svg, write_trace_svg
from repro.workloads import uniform_chain


@pytest.fixture
def traced():
    chain = uniform_chain(2, work=4.0, comm=1.0)
    mapping = Mapping([ModuleSpec(0, 0, 2, 2), ModuleSpec(1, 1, 2, 2)])
    sim = simulate(chain, mapping, n_datasets=8, collect_trace=True)
    return chain, mapping, sim


class TestSvg:
    def test_valid_document(self, traced):
        _, _, sim = traced
        svg = trace_to_svg(sim.trace)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<rect") > 8

    def test_all_lanes_labelled(self, traced):
        _, _, sim = traced
        svg = trace_to_svg(sim.trace)
        for lane in ("m0.0", "m0.1", "m1.0", "m1.1"):
            assert lane in svg

    def test_empty_trace(self):
        assert "empty trace" in trace_to_svg(TraceLog())

    def test_write_to_file(self, traced, tmp_path):
        _, _, sim = traced
        path = write_trace_svg(sim.trace, tmp_path / "trace.svg")
        assert path.read_text().startswith("<svg")


class TestPlacementEffects:
    def _setup(self):
        chain = uniform_chain(2, work=0.2, comm=2.0)   # comm-heavy
        mapping = Mapping([ModuleSpec(0, 0, 2), ModuleSpec(1, 1, 2)])
        return chain, mapping

    def test_distance_slows_transfers(self):
        chain, mapping = self._setup()
        near = [[Rect(0, 0, 1, 2)], [Rect(0, 2, 1, 2)]]
        far = [[Rect(0, 0, 1, 2)], [Rect(7, 6, 1, 2)]]
        tp_near = simulate(
            chain, mapping, 100, placements=near, hop_penalty=0.05
        ).throughput
        tp_far = simulate(
            chain, mapping, 100, placements=far, hop_penalty=0.05
        ).throughput
        assert tp_far < tp_near

    def test_zero_penalty_is_noop(self):
        chain, mapping = self._setup()
        far = [[Rect(0, 0, 1, 2)], [Rect(7, 6, 1, 2)]]
        base = simulate(chain, mapping, 100).throughput
        with_pl = simulate(
            chain, mapping, 100, placements=far, hop_penalty=0.0
        ).throughput
        assert with_pl == pytest.approx(base)

    def test_placements_must_cover_modules(self):
        chain, mapping = self._setup()
        with pytest.raises(SimulationError):
            simulate(chain, mapping, 10,
                     placements=[[Rect(0, 0, 1, 2)]], hop_penalty=0.05)

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_placements_must_match_replica_counts(self, engine):
        # One rectangle per instance: with fewer the hop matrix would
        # index past a module's list, and extras would go unused.
        chain, _ = self._setup()
        mapping = Mapping([ModuleSpec(0, 0, 2, 2), ModuleSpec(1, 1, 2, 1)])
        short = [[Rect(0, 0, 1, 2)], [Rect(0, 2, 1, 2)]]
        extra = [[Rect(0, 0, 1, 2), Rect(1, 0, 1, 2)],
                 [Rect(0, 2, 1, 2), Rect(3, 3, 1, 2)]]
        for placements in (short, extra):
            with pytest.raises(SimulationError, match="per replica"):
                simulate(chain, mapping, 50, placements=placements,
                         hop_penalty=0.5, engine=engine)

    def test_experiment_shape(self):
        """The §2.1 claim: location effects stay second order."""
        from repro.experiments import placement

        res = placement.run(shuffles=2, n_datasets=80)
        assert res.worst_spread < 0.03
