"""Golden-trace regression: a committed trace must replay forever.

``tests/data/golden_lifecycle.json`` records a full enclave lifecycle
(construction, measured code, execution with an interrupt, resume,
stop) captured from a known-good build.  Any behavioural change to the
monitor — different error codes, different exit values, different
interrupt semantics — makes the replay diverge, turning silent
behaviour drift into a loud test failure.
"""

import pathlib

import pytest

from repro.monitor.komodo import KomodoMonitor
from repro.tools.trace import ReplayDivergence, Trace, replay

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "data" / "golden_lifecycle.json"


class TestGoldenTrace:
    def test_exists(self):
        assert GOLDEN.exists()

    def test_replays_exactly(self, monkeypatch):
        trace = Trace.from_json(GOLDEN.read_text())
        issued = []
        smc = KomodoMonitor.smc

        def counted_smc(monitor, callno, *args):
            issued.append(callno)
            return smc(monitor, callno, *args)

        monkeypatch.setattr(KomodoMonitor, "smc", counted_smc)
        replay(trace)  # raises ReplayDivergence on drift
        assert issued == [step.callno for step in trace.steps]

    def test_covers_the_interesting_paths(self):
        """The golden trace is only useful if it exercises execution."""
        from repro.monitor.layout import SMC

        trace = Trace.from_json(GOLDEN.read_text())
        callnos = {step.callno for step in trace.steps}
        assert {int(SMC.ENTER), int(SMC.RESUME), int(SMC.MAP_SECURE)} <= callnos
        assert any(step.interrupt_after is not None for step in trace.steps)

    def test_tampered_golden_detected(self):
        trace = Trace.from_json(GOLDEN.read_text())
        trace.steps[-1].value ^= 1
        with pytest.raises(ReplayDivergence):
            replay(trace)
