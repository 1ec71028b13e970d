"""Fixture tests for the determinism lint rules.

Every rule gets at least one true-positive fixture (the rule fires) and
one true-negative fixture (the deterministic idiom stays quiet).  Scoped
rules are exercised through path names inside and outside their scope.
"""

import pytest

from repro.analysis import lint_source

SIM_PATH = "repro/sim/fixture.py"
CORE_PATH = "repro/core/fixture.py"
TOOLS_PATH = "repro/tools/fixture.py"


def rules_fired(source, filename=SIM_PATH):
    return {d.rule for d in lint_source(source, filename)}


class TestUnseededRng:
    def test_stdlib_module_state_flagged(self):
        src = "import random\nx = random.random()\n"
        assert "unseeded-rng" in rules_fired(src)

    def test_stdlib_aliased_module_flagged(self):
        src = "import random as rnd\nx = rnd.shuffle(items)\n"
        assert "unseeded-rng" in rules_fired(src)

    def test_numpy_module_state_flagged(self):
        src = "import numpy as np\nx = np.random.normal(0, 1)\n"
        assert "unseeded-rng" in rules_fired(src)

    def test_entropy_seeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "unseeded-rng" in rules_fired(src)

    def test_none_seed_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert "unseeded-rng" in rules_fired(src)

    @pytest.mark.parametrize("call", [
        "random.Random()",
        "random.Random(None)",
        "np.random.default_rng(seed=None)",
        "np.random.RandomState(seed=None)",
    ])
    def test_entropy_seeded_constructor_flagged(self, call):
        src = f"import random\nimport numpy as np\nrng = {call}\n"
        assert "unseeded-rng" in rules_fired(src)

    def test_imported_random_class_flagged(self):
        src = "from random import Random\nrng = Random()\n"
        assert "unseeded-rng" in rules_fired(src)

    @pytest.mark.parametrize("call", [
        "random.Random(7)",
        "np.random.default_rng(seed=3)",
        "np.random.RandomState(seed=3)",
    ])
    def test_explicit_seed_ok(self, call):
        src = f"import random\nimport numpy as np\nrng = {call}\n"
        assert "unseeded-rng" not in rules_fired(src)

    def test_seeded_generator_ok(self):
        src = (
            "import numpy as np\n"
            "import random\n"
            "rng = np.random.default_rng(42)\n"
            "r = random.Random(7)\n"
            "x = rng.normal(0, 1)\n"
            "y = r.random()\n"
        )
        assert "unseeded-rng" not in rules_fired(src)

    def test_applies_everywhere(self):
        src = "import random\nx = random.random()\n"
        assert "unseeded-rng" in rules_fired(src, TOOLS_PATH)


class TestWallClock:
    def test_time_time_flagged_in_sim(self):
        src = "import time\nt = time.time()\n"
        assert "wall-clock" in rules_fired(src, SIM_PATH)

    def test_perf_counter_flagged_in_core(self):
        src = "import time\nt = time.perf_counter()\n"
        assert "wall-clock" in rules_fired(src, CORE_PATH)

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert "wall-clock" in rules_fired(src, SIM_PATH)

    def test_out_of_scope_ok(self):
        # Timing is the whole point in tools/benchmark code.
        src = "import time\nt = time.time()\n"
        assert "wall-clock" not in rules_fired(src, TOOLS_PATH)

    def test_engine_clock_ok(self):
        src = "def tick(sim):\n    return sim.now\n"
        assert "wall-clock" not in rules_fired(src, SIM_PATH)


class TestUnorderedIteration:
    def test_for_over_set_accumulating_flagged(self):
        src = (
            "def total(costs):\n"
            "    s = set(costs)\n"
            "    acc = 0.0\n"
            "    for c in s:\n"
            "        acc += c\n"
            "    return acc\n"
        )
        assert "unordered-iteration" in rules_fired(src, CORE_PATH)

    def test_sum_over_set_literal_flagged(self):
        src = "x = sum({a, b, c})\n"
        assert "unordered-iteration" in rules_fired(src, SIM_PATH)

    def test_sum_genexp_over_set_flagged(self):
        src = "pending = set(jobs)\nx = sum(j.cost for j in pending)\n"
        assert "unordered-iteration" in rules_fired(src, SIM_PATH)

    def test_sum_over_annotated_set_local_flagged(self):
        src = (
            "def total(xs):\n"
            "    s: set = set(xs)\n"
            "    return sum(s)\n"
        )
        assert "unordered-iteration" in rules_fired(src, CORE_PATH)

    def test_annotated_rebinding_to_list_ok(self):
        src = (
            "def total(xs):\n"
            "    s = set(xs)\n"
            "    s: list = sorted(s)\n"
            "    return sum(s)\n"
        )
        assert "unordered-iteration" not in rules_fired(src, CORE_PATH)

    def test_sorted_iteration_ok(self):
        src = (
            "def total(costs):\n"
            "    acc = 0.0\n"
            "    for c in sorted(set(costs)):\n"
            "        acc += c\n"
            "    return acc\n"
        )
        assert "unordered-iteration" not in rules_fired(src, CORE_PATH)

    def test_list_iteration_ok(self):
        src = (
            "acc = 0.0\n"
            "for c in [1.0, 2.0]:\n"
            "    acc += c\n"
        )
        assert "unordered-iteration" not in rules_fired(src, CORE_PATH)

    def test_membership_only_loop_ok(self):
        # Iterating a set without accumulating is order-insensitive.
        src = (
            "alive = set(ids)\n"
            "for i in alive:\n"
            "    print(i)\n"
        )
        assert "unordered-iteration" not in rules_fired(src, SIM_PATH)

    def test_out_of_scope_ok(self):
        src = "x = sum({1.0, 2.0})\n"
        assert "unordered-iteration" not in rules_fired(src, TOOLS_PATH)


class TestMutableDefault:
    def test_list_default_flagged(self):
        src = "def f(xs=[]):\n    return xs\n"
        assert "mutable-default" in rules_fired(src)

    def test_dict_call_default_flagged(self):
        src = "def f(cfg=dict()):\n    return cfg\n"
        assert "mutable-default" in rules_fired(src)

    def test_kwonly_default_flagged(self):
        src = "def f(*, acc={}):\n    return acc\n"
        assert "mutable-default" in rules_fired(src)

    def test_none_default_ok(self):
        src = (
            "def f(xs=None):\n"
            "    if xs is None:\n"
            "        xs = []\n"
            "    return xs\n"
        )
        assert "mutable-default" not in rules_fired(src)

    def test_immutable_defaults_ok(self):
        src = "def f(a=1, b=(), c='x', d=frozenset()):\n    return a\n"
        # frozenset() resolves through _MUTABLE_CALLS? It must not fire:
        # frozensets are immutable.
        assert "mutable-default" not in rules_fired(src)


class TestDiagnosticsFormat:
    def test_file_line_col_span(self):
        src = "import random\nx = random.random()\n"
        (d,) = [
            d for d in lint_source(src, SIM_PATH) if d.rule == "unseeded-rng"
        ]
        assert d.path == SIM_PATH
        assert d.line == 2
        assert d.col == 4
        # format() prints 1-based columns
        assert d.format().startswith(f"{SIM_PATH}:2:5:")

    def test_json_payload_shape(self):
        from repro.analysis.diagnostics import report_to_dict

        src = "import random\nx = random.random()\n"
        diags = lint_source(src, SIM_PATH)
        payload = report_to_dict(diags, files_scanned=1)
        assert payload["format"] == "repro-lint/v2"
        assert payload["files_scanned"] == 1
        assert payload["violations"] >= 1
        assert set(payload) == {"format", "files_scanned", "violations", "diagnostics"}
        entry = payload["diagnostics"][0]
        assert {"rule", "path", "line", "col", "message"} <= set(entry)

    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def broken(:\n", SIM_PATH)
        assert [d.rule for d in diags] == ["syntax-error"]
