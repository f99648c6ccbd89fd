"""CLI tests for pathexp: bad input is a usage error (exit 2), not a failed check."""

import pytest

from repro.tools import pathexp


@pytest.mark.parametrize(
    "argv",
    [["--smc", "nonesuch"], ["--smc", "query", "--update-baseline"]],
    ids=["unknown-smc", "partial-baseline-update"],
)
def test_bad_input_is_a_usage_error(argv, capsys, monkeypatch):
    def no_save(census, path=None):
        raise AssertionError("a usage error must not rewrite the baseline")

    monkeypatch.setattr(pathexp, "save_baseline", no_save)
    with pytest.raises(SystemExit) as excinfo:
        pathexp.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err
