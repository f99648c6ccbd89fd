"""The machine audit's all-zero scans: journal residue and free pages."""

import pytest

from repro.faults.audit import machine_consistency
from repro.monitor import journal
from repro.monitor.komodo import KomodoMonitor


@pytest.fixture
def state():
    return KomodoMonitor(secure_pages=8).state


def test_quiescent_machine_is_consistent(state):
    assert machine_consistency(state) == []


def test_journal_residue_is_reported(state):
    last_word = journal.journal_base(state) + journal.JOURNAL_SIZE - 4
    state.memory.write_word(last_word, 1)
    assert machine_consistency(state) == ["journal region holds residue"]


def test_unscrubbed_free_page_is_reported(state):
    state.memory.write_word(state.memmap.page_base(3) + 8, 1)
    assert machine_consistency(state) == ["free page 3 is not scrubbed"]
