"""CLI tests for pathexp: bad input is a usage error (exit 2), not a failed check."""

import os

import pytest

from repro.faults import parallel
from repro.tools import pathexp


@pytest.mark.parametrize(
    "argv",
    [["--smc", "nonesuch"], ["--smc", "query", "--update-baseline"]],
    ids=["unknown-smc", "partial-baseline-update"],
)
def test_bad_input_is_a_usage_error(argv, capsys, monkeypatch):
    def no_save(census):
        raise AssertionError("a usage error must not rewrite the baseline")

    monkeypatch.setattr(pathexp, "save_baseline", no_save)
    with pytest.raises(SystemExit) as excinfo:
        pathexp.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err


def test_jobs_are_clamped_to_the_cpu_count(monkeypatch, capsys):
    """On a one-CPU host ``--jobs 4`` replays serially, in process: one
    shard, which ``run_shards`` runs inline."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    asked = []
    run_shards = parallel.run_shards

    def recording(fn, jobs):
        asked.append(jobs)
        return run_shards(fn, jobs)

    monkeypatch.setattr(parallel, "run_shards", recording)
    assert pathexp.main(["--smc", "get_physpages", "--check", "--jobs", "4"]) == 0
    assert asked == [1]
    assert "replayed cleanly on turbo" in capsys.readouterr().out
