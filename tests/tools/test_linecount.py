"""The Table 2 line-count tool: counting rules and component mapping."""

import pathlib

import pytest

from repro.tools.linecount import (
    COMPONENT_MAP,
    PAPER_TABLE2,
    component_linecounts,
    count_source_lines,
    format_table,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestCounting:
    def test_blank_and_comment_lines_skipped(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text("\n\n# only a comment\nx = 1\n\ny = 2\n")
        assert count_source_lines(source) == 2

    def test_multiline_docstrings_skipped(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text('"""first\nsecond\nthird"""\ncode = 1\n')
        assert count_source_lines(source) == 1

    def test_one_line_docstring_skipped(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text('def f():\n    """doc"""\n    return 1\n')
        assert count_source_lines(source) == 2

    def test_string_literals_counted(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text('x = "not a docstring"\ny = 2\n')
        assert count_source_lines(source) == 2

    def test_empty_file(self, tmp_path):
        source = tmp_path / "s.py"
        source.write_text("")
        assert count_source_lines(source) == 0


class TestComponentMapping:
    def test_every_mapped_path_exists(self):
        """A stale COMPONENT_MAP silently undercounts; pin existence."""
        for name, groups in COMPONENT_MAP.items():
            for group in groups:
                for prefix in group:
                    target = REPO_ROOT / prefix
                    assert target.exists(), f"{name}: missing {prefix}"

    def test_paper_components_all_mapped(self):
        assert set(PAPER_TABLE2) == set(COMPONENT_MAP)

    def test_counts_are_positive(self):
        counts = component_linecounts(REPO_ROOT)
        assert all(component.total > 0 for component in counts)

    def test_format_table_includes_totals(self):
        table = format_table(component_linecounts(REPO_ROOT))
        assert "Total" in table
        assert "SMC handler" in table

    def test_no_file_double_counted_within_component(self):
        for name, groups in COMPONENT_MAP.items():
            seen = set()
            for group in groups:
                for prefix in group:
                    assert prefix not in seen, f"{name} lists {prefix} twice"
                    seen.add(prefix)


class TestTable2Shape:
    """The structural observations the paper's Table 2 supports; absolute
    counts differ (another language, checks in place of proofs)."""

    @pytest.fixture(scope="class")
    def counts(self):
        return {component.name: component for component in component_linecounts(REPO_ROOT)}

    def test_every_component_nontrivial(self, counts):
        for component in counts.values():
            assert component.total > 100, f"{component.name} is missing work"

    def test_smc_handler_outweighs_svc_handler(self, counts):
        """The OS-facing API is the larger handler.  Enter/Resume are
        bucketed under "Other exceptions" here, so only the SVC
        comparison is meaningful."""
        assert counts["SMC handler"].total > counts["SVC handler"].total

    def test_checking_dominates_implementation(self, counts):
        """The paper's proof:impl ratio is ~7:1; executable checking is
        cheaper than SMT proof but still outweighs implementation."""
        components = counts.values()
        assert sum(c.check for c in components) > sum(c.impl for c in components)
