"""The repo must lint itself clean — the CI gate.

Any finding fails this test (and the ``repro-map lint --self`` CI job).
"""

from repro.analysis import self_check


class TestSelfCheck:
    def test_tree_lints_clean(self):
        report = self_check()
        assert report.files_scanned > 50
        details = "\n".join(d.format() for d in report.diagnostics)
        assert not report.diagnostics, f"self-lint findings:\n{details}"
