"""CLI smoke tests (fast paths only — tables/figures are covered by the
benchmark harness)."""

import pytest

from repro.tools.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map"])
        assert args.workload == "fft-hist-256"
        assert args.machine == "iwarp64-message"

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "-w", "weather"])

    def test_fault_flags_parse(self):
        args = build_parser().parse_args([
            "simulate", "--fail", "40:1", "--fail", "60:0:1",
            "--comm-fault-prob", "0.1", "--remap-latency", "0.5",
        ])
        assert args.fail == ["40:1", "60:0:1"]
        assert args.comm_fault_prob == pytest.approx(0.1)
        assert args.remap_latency == pytest.approx(0.5)

    def test_bad_fail_spec_exits(self):
        from repro.tools.cli import _parse_faults

        args = build_parser().parse_args(["simulate", "--fail", "40"])
        with pytest.raises(SystemExit):
            _parse_faults(args)


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "iwarp64-message" in out
        assert "8x8" in out

    def test_map_runs_end_to_end(self, capsys):
        assert main(["map", "-w", "fft-hist-256", "-m", "iwarp64-message"]) == 0
        out = capsys.readouterr().out
        assert "DP optimum" in out
        assert "feasible" in out
        assert "data sets/s" in out

    def test_simulate_reports_measured(self, capsys):
        assert main([
            "simulate", "-w", "fft-hist-256", "-m", "iwarp64-message",
            "--datasets", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "measured" in out

    def test_simulate_with_fault_injection(self, capsys):
        assert main([
            "simulate", "-w", "fft-hist-256", "-m", "iwarp64-message",
            "--datasets", "60", "--fail", "1:0:1", "--fault-seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "availability" in out

    def test_map_save_writes_plan(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main([
            "map", "-w", "fft-hist-256", "-m", "iwarp64-message",
            "--save", str(plan_path),
        ]) == 0
        assert plan_path.exists()
        import json

        payload = json.loads(plan_path.read_text())
        assert payload["kind"] == "plan"
        assert "mapping" in payload

    def test_table1_renders(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "fft-hist-512" in out

    def test_figures_only_flag(self, capsys):
        assert main(["figures", "--only", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Figure 3" not in out

    def test_size_command(self, capsys):
        assert main([
            "size", "-w", "radar", "-m", "iwarp64-systolic", "--target", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "processors:" in out

    def test_size_infeasible_target(self, capsys):
        assert main([
            "size", "-w", "radar", "-m", "iwarp64-systolic",
            "--target", "100000",
        ]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_lint_plan_predicts_throughput(self, capsys, tmp_path):
        from repro.core import Mapping, ModuleSpec
        from repro.tools import save_mapping

        path = save_mapping(
            Mapping([ModuleSpec(0, 2, 4, 5), ModuleSpec(3, 3, 4, 1)]),
            tmp_path / "m.json",
        )
        assert main([
            "lint", "--plan", str(path), "-w", "radar",
            "-m", "iwarp64-systolic",
        ]) == 0
        assert "predicted throughput" in capsys.readouterr().out

    def test_lint_plan_warning_does_not_gate(self, capsys, tmp_path):
        from repro.core import Mapping, ModuleSpec
        from repro.tools import save_mapping

        path = save_mapping(
            Mapping([ModuleSpec(0, 3, 4)]), tmp_path / "m.json"
        )
        assert main([
            "lint", "--plan", str(path), "-w", "radar",
            "-m", "iwarp64-systolic",
        ]) == 0
        out = capsys.readouterr().out
        assert "plan ok" in out
        assert "[warning] idle: 60 of 64 processors are idle" in out

    def test_lint_self_passes(self, capsys):
        assert main(["lint", "--self"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "file(s) scanned" in out

    def test_lint_paths_finds_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out
        assert "FAIL" in out

    def test_lint_writes_json_diagnostics(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        out_path = tmp_path / "diag.json"
        assert main(["lint", str(bad), "--json", str(out_path)]) == 1
        payload = json.loads(out_path.read_text())
        assert payload["lint"]["format"] == "repro-lint/v1"
        entry = payload["lint"]["diagnostics"][0]
        assert entry["rule"] == "mutable-default"
        assert entry["path"] == str(bad)
        assert entry["line"] == 1

    def test_lint_plan_verifies_saved_mapping(self, capsys, tmp_path):
        from repro.core import Mapping, ModuleSpec
        from repro.tools import save_mapping

        path = save_mapping(
            Mapping([ModuleSpec(0, 3, 4)]), tmp_path / "m.json"
        )
        assert main([
            "lint", "--plan", str(path), "-w", "radar",
            "-m", "iwarp64-systolic",
        ]) == 0
        assert "plan ok" in capsys.readouterr().out

    def test_lint_plan_rejects_over_budget(self, capsys, tmp_path):
        from repro.core import Mapping, ModuleSpec
        from repro.tools import save_mapping

        path = save_mapping(
            Mapping([ModuleSpec(0, 3, 4000)]), tmp_path / "m.json"
        )
        assert main([
            "lint", "--plan", str(path), "-w", "radar",
            "-m", "iwarp64-systolic",
        ]) == 1
        assert "plan rejected" in capsys.readouterr().out

    @pytest.mark.parametrize("machine", ["iwarp64-message", "iwarp64-systolic"])
    def test_trace_without_steady_state_fails_cleanly(self, capsys, machine):
        # stereo's optimum is one module of 16 replicas: 12 data sets run in
        # one wave and every completion falls at one instant.
        assert main(["trace", "-w", "stereo", "-m", machine]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: degenerate steady-state window")
        assert "--datasets is 12" in captured.err
        assert main(["trace", "-w", "stereo", "-m", machine,
                     "--datasets", "40"]) == 0
        assert "|" in capsys.readouterr().out

    def test_trace_renders_gantt_and_svg(self, capsys, tmp_path):
        svg_path = tmp_path / "t.svg"
        assert main([
            "trace", "-w", "fft-hist-256", "-m", "iwarp64-message",
            "--datasets", "8", "--svg", str(svg_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "mapping:" in out
        assert "|" in out  # gantt lanes
        assert svg_path.read_text().startswith("<svg")
