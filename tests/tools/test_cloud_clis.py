"""CLI tests for cloudcamp: the gate, usage errors, and exit codes."""

import pytest

from repro.cloud.chaos import ChaosCampaign, ChaosReport
from repro.tools import cloudcamp


class TestCloudcamp:
    def test_check_gate_passes_on_a_small_sweep(self, capsys):
        status = cloudcamp.main(
            ["--check", "--kill-stride", "9", "--kinds", "attest,spin"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "bit-exact" in out
        assert "0 hangs" in out

    @pytest.mark.parametrize(
        "argv", [["--kill-stride", "0"], ["--kinds", "bogus"]], ids=["stride", "kind"]
    )
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cloudcamp.main(argv)
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_only_check_turns_violations_into_exit_1(self, monkeypatch, capsys):
        def failing_run(self):
            return ChaosReport(
                engine=self.engine,
                workers=self.workers,
                kill_stride=self.kill_stride,
                seed=self.seed,
                violations=["attest kill@3: digest mismatch"],
            )

        monkeypatch.setattr(ChaosCampaign, "run", failing_run)
        assert cloudcamp.main([]) == 0
        assert "cloudcamp: 1 violation(s)" in capsys.readouterr().out
        assert cloudcamp.main(["--check"]) == 1
