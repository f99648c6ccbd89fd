"""The campaign CLIs share one scaffold: bad input is a usage error
(exit 2, no traceback), and ``--check`` alone turns violations into
exit 1."""

import os

import pytest

from repro.faults import parallel
from repro.tools import bitflip, faultcamp, pipecamp

TOOLS = {"faultcamp": faultcamp.main, "bitflip": bitflip.main, "pipecamp": pipecamp.main}

#: Each CLI's selection option, given a name it does not know.
UNKNOWN_SELECTION = {
    "faultcamp": ["--steps", "nonesuch"],
    "bitflip": ["--targets", "nonesuch"],
    "pipecamp": ["--pipelines", "nonesuch"],
}


def usage_error(main, argv, capsys) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("tool", sorted(TOOLS))
class TestBadInput:
    def test_zero_stride_is_a_usage_error(self, tool, capsys):
        err = usage_error(TOOLS[tool], ["--stride", "0"], capsys)
        assert "stride must be >= 1" in err

    def test_unknown_selection_is_a_usage_error(self, tool, capsys):
        err = usage_error(TOOLS[tool], UNKNOWN_SELECTION[tool], capsys)
        assert "nonesuch" in err

    def test_zero_jobs_is_a_usage_error(self, tool, capsys):
        err = usage_error(TOOLS[tool], ["--jobs", "0"], capsys)
        assert "--jobs must be at least 1" in err


class TestCheck:
    #: A watchdog no trial can meet: every golden run times out, which
    #: is a recorded violation.
    TIMED_OUT = ["--steps", "stop", "--timeout", "1e-9"]

    def test_violations_exit_1_with_check(self, capsys):
        assert faultcamp.main(["--check", *self.TIMED_OUT]) == 1
        out = capsys.readouterr().out
        assert "wall-clock limit" in out
        assert "faultcamp: 1 violation(s)" in out

    def test_violations_exit_0_without_check(self, capsys):
        assert faultcamp.main(self.TIMED_OUT) == 0
        assert "faultcamp: 1 violation(s)" in capsys.readouterr().out

    def test_clean_sharded_run_verifies_against_serial(self, capsys):
        argv = ["--check", "--steps", "stop", "--stride", "3", "--jobs", "2"]
        assert faultcamp.main([*argv, "--verify-serial"]) == 0
        out = capsys.readouterr().out
        assert "verify-serial [turbo]: jobs=2" in out and ": OK" in out
        assert "faultcamp: every injection point recovered" in out


def test_jobs_are_clamped_to_the_cpu_count(monkeypatch, capsys):
    """``--jobs 4`` on a one-CPU host runs serially instead of forking
    four shards onto one core."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    asked = []
    run_shards = parallel.run_shards

    def recording(fn, jobs):
        asked.append(jobs)
        return run_shards(fn, jobs)

    monkeypatch.setattr(parallel, "run_shards", recording)
    argv = ["--check", "--steps", "stop", "--stride", "3", "--jobs", "4"]
    assert faultcamp.main(argv) == 0
    assert asked == [1]
    assert "faultcamp: " in capsys.readouterr().out
