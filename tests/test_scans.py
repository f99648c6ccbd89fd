"""Each contract scan catches the defect it was written for.

Every case runs one scan's ``find`` over synthetic modules (``path ->
source``, paths from the repository root) and judges the findings
against an allowlist with :func:`tests.scans.judge`, expecting its
``(unexplained, stale)`` exactly.
"""

import ast
import functools

import pytest

from tests import scans
from tests import test_dead_code as dead_code
from tests import test_unset_defaults as unset_defaults
from tests.arm import test_store_contract as store
from tests.crypto import test_pure_hash_contract as pure_hash

DEFINITIONS = (
    "def used():\n    pass\n\n"
    "def unused():\n    used()\n\n"
    "def exported():\n    pass\n\n"
    "class Box:\n    def touched(self):\n        pass\n"
    "    def untouched(self):\n        self.touched()\n"
    "\nPATCH = ('mod', 'patched')\n"
    "def patched():\n    '''mentions unused and untouched in prose'''\n"
)
DEFAULTS = (
    "def knob(a, b=1, c=2, d=3, *, e=4):\n    pass\n\n"
    "def spread(a=1):\n    pass\n\n"
    "def bound(a=1):\n    pass\n\n"
    "class Base:\n"
    "    def __init__(self, x=0, y=0):\n        pass\n\n"
    "class Child(Base):\n"
    "    def __init__(self):\n        super().__init__(y=5)\n\n"
    "class Built:\n"
    "    def __init__(self, size=1):\n        pass\n"
    "    @classmethod\n"
    "    def make(cls):\n        return cls(2)\n"
)
CALLS = (
    "knob(0, 9)\nknob(0, e=7)\n"
    "spread(**{'a': 2})\n"
    "functools.partial(bound)\n"
    "Built.make()\n"
)
SET = ["repro/m.py:spread(a)", "repro/m.py:bound(a)", "repro/m.py:Built.__init__(size)"]

#: case -> (scan, sources, allowlist, unexplained, stale)
CASES = {
    "dead-code": (
        dead_code.find,
        {
            "src/repro/m.py": DEFINITIONS,
            "src/repro/__init__.py": "from .m import exported\n",
        },
        dict.fromkeys(["repro/m.py:patched"], ""),
        [f"repro/m.py:{n}" for n in ("Box", "Box.untouched", "exported", "unused")],
        ["repro/m.py:patched (no longer found)"],
    ),
    "unset-default": (
        unset_defaults.find,
        {"src/repro/m.py": DEFAULTS, "tests/t.py": CALLS},
        dict.fromkeys(SET, ""),
        ["repro/m.py:Base.__init__(x)", "repro/m.py:knob(c)", "repro/m.py:knob(d)"],
        sorted(f"{key} (no longer found)" for key in SET),
    ),
    "internals-outside-owners": (
        functools.partial(store.find, breach=store.touches_internals),
        {
            "src/repro/arm/memory.py": "self._buf[0] = 1\n",
            "src/repro/arm/encryption.py": "self._tags = {}\n",
            "src/repro/arm/blocks.py": "md = mem._dirty\n",
            "src/repro/monitor/smc.py": "state.memory._buf[0] = 1\n",
        },
        store.INTERNALS_OWNERS,
        ["monitor/smc.py"],
        [],
    ),
    "note-store-outside-owner": (
        functools.partial(store.find, breach=store.calls_note_store),
        {
            "src/repro/arm/memory.py": "self._tlb.note_store(page)\n",
            "src/repro/arm/tlb.py": "def note_store(self, address):\n    pass\n",
            "src/repro/arm/cpu.py": "state.tlb.note_store(0)\n",
        },
        store.NOTE_STORE_OWNERS,
        ["arm/cpu.py"],
        [],
    ),
    "memory-state-set": (
        functools.partial(store.find, breach=store.sets_memory_state),
        {
            "src/repro/monitor/smc.py": "state.memory.x = 1\n",
            "src/repro/monitor/svc.py": "del self.memory.y\n",
            "src/repro/monitor/komodo.py": "memory.write_word(0, state.memory.z)\n",
        },
        store.MEMORY_STATE_OWNERS,
        ["monitor/smc.py", "monitor/svc.py"],
        [],
    ),
    "sha256-outside-measurement": (
        pure_hash.find,
        {
            "src/repro/monitor/measurement.py": "h = SHA256()\n",
            "src/repro/monitor/attestation.py": "from .sha256 import SHA256\n",
            "src/repro/monitor/smc.py": "digest = sha256(b'')\n",
        },
        dict.fromkeys(["monitor/measurement.py"], ""),
        ["monitor/attestation.py"],
        [],
    ),
    "stale-allowlist": (
        pure_hash.find,
        {"src/repro/monitor/measurement.py": "digest = sha256(b'')\n"},
        dict.fromkeys(["monitor/measurement.py", "monitor/gone.py"], ""),
        [],
        [
            "monitor/gone.py (no longer exists)",
            "monitor/measurement.py (no longer found)",
        ],
    ),
}


@pytest.mark.parametrize(
    "find, sources, allowed, unexplained, stale", CASES.values(), ids=CASES
)
def test_scan_catches_its_defect(find, sources, allowed, unexplained, stale):
    trees = {scans.REPO / path: ast.parse(text) for path, text in sources.items()}
    assert scans.judge(*find(trees), allowed) == (unexplained, stale)
