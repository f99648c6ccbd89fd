"""The one-command report tool: each generator produces sane rows."""

import pytest

from repro.arm import cpu
from repro.tools.report import Row, figure5_rows, table3_rows

#: Table 3 in simulated cycles.  They depend only on the cost model, so
#: any drift is a bug, and every engine must give the same numbers.
TABLE3_CYCLES = {
    "GetPhysPages (null SMC)": 123,
    "Enter + Exit (full crossing)": 788,
    "Enter only (no return)": 475,
    "Resume only (no return)": 595,
    "AllocSpare": 144,
    "Attest": 12331,
    "Verify": 13228,
    "MapData": 5704,
}


class TestReportGenerators:
    def test_table3_rows_complete(self):
        rows = table3_rows()
        names = {row.name for row in rows}
        assert {
            "GetPhysPages (null SMC)",
            "Enter only (no return)",
            "Enter + Exit (full crossing)",
            "Resume only (no return)",
            "Attest",
            "Verify",
            "AllocSpare",
            "MapData",
        } == names

    def test_table3_all_measured_positive(self):
        for row in table3_rows():
            assert row.measured > 0, row.name

    def test_table3_within_factor_two_of_paper(self):
        for row in table3_rows():
            assert 0.5 < row.measured / row.paper < 2.0, row.name

    @pytest.mark.parametrize("engine", cpu.ENGINES)
    def test_table3_cycles_are_pinned_on_every_engine(self, engine, monkeypatch):
        monkeypatch.setattr(cpu, "DEFAULT_ENGINE", engine)
        cycles = {row.name: row.measured for row in table3_rows()}
        assert cycles == TABLE3_CYCLES
        # The one-way SVC exit path: a full crossing minus its entry leg.
        one_way = cycles["Enter + Exit (full crossing)"] - cycles["Enter only (no return)"]
        assert one_way == 313

    def test_figure5_rows_small(self):
        rows = figure5_rows(max_kb=8)
        assert len(rows) == 2
        for row in rows:
            assert row.measured >= row.paper  # enclave >= native
            assert row.measured / row.paper < 1.10

    def test_row_render(self):
        line = Row("thing", 100, 106).render()
        assert "thing" in line and "1.06x" in line
