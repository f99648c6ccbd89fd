"""The incremental ``SHA256`` is used only where its midstate is
machine-visible.

``SHA256`` keeps its 8 chaining words in Python and compresses one
block per call: on libcrypto's ``SHA256_Transform`` through ``ctypes``,
or on the pure-Python reference compress where that symbol cannot be
resolved.  Every other hash persists no chaining state and runs on
``hashlib``, one C call per message; simulated cycles come from block
counts either way.  This scan keeps one-shot hashing from drifting back
onto the per-block path.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: Modules allowed to name ``SHA256``: its definition, the measurement
#: whose 8 chaining words live in the addrspace page, and the refinement
#: checker's replay of that measurement.
ALLOWED = {
    "crypto/sha256.py",
    "monitor/measurement.py",
    "verification/refinement.py",
}


def references_sha256(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "SHA256":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "SHA256":
            return True
        if isinstance(node, ast.alias) and node.name == "SHA256":
            return True
    return False


def test_pure_sha256_only_where_midstate_is_visible():
    offenders = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).as_posix() not in ALLOWED
        and references_sha256(ast.parse(path.read_text(), filename=str(path)))
    )
    assert offenders == []


def test_allowed_modules_still_exist():
    for module in ALLOWED:
        assert (SRC / module).is_file(), module
