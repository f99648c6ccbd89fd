"""The incremental ``SHA256`` is used only where its midstate is
machine-visible.

``SHA256`` keeps its 8 chaining words in Python and compresses one
block per call: on libcrypto's ``SHA256_Transform`` through ``ctypes``,
or on the pure-Python reference compress where that symbol cannot be
resolved.  Every other hash persists no chaining state and runs on
``hashlib``, one C call per message; simulated cycles come from block
counts either way.  This scan keeps one-shot hashing from drifting back
onto the per-block path: a module names ``SHA256`` by the shared
name-use rule, :func:`tests.scans.mentions`, and only the modules on
:data:`ALLOWED` may; :func:`tests.scans.judge` fails an entry that no
longer names it, or no longer exists.
"""

from tests import scans

#: Module -> why it may name ``SHA256``.
ALLOWED = {
    "crypto/sha256.py": "its definition",
    "monitor/measurement.py": (
        "the measurement, whose 8 chaining words live in the addrspace page"
    ),
    "verification/refinement.py": "the refinement checker's replay of the measurement",
}


def find(trees):
    """The modules under ``src/repro`` that name ``SHA256``, and every
    module seen."""
    modules = {
        path.relative_to(scans.SRC / "repro").as_posix(): tree
        for path, tree in trees.items()
    }
    return {m for m, tree in modules.items() if "SHA256" in scans.names(tree)}, modules


def test_pure_sha256_only_where_midstate_is_visible():
    unexplained, _stale = scans.judge(*scans.run(find, "src"), ALLOWED)
    assert unexplained == []


def test_allowed_modules_still_exist():
    _unexplained, stale = scans.judge(*scans.run(find, "src"), ALLOWED)
    assert stale == []
