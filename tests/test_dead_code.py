"""Dead-code scan: every definition in ``src/`` has a caller outside tests.

An AST scan lists the functions, classes and methods defined in
``src/repro`` and fails on any whose name appears nowhere in ``src/``,
``bench/`` or ``examples/`` except at its own definition: code that only
tests reach.  A name counts as used where it is read as a variable or
attribute, imported, passed as a keyword, or written as a whole string
(``getattr`` names, ``module:function`` specs, patch tables); prose in
docstrings and comments does not count.  Neither does a package
``__init__.py``: a re-export there is not a caller, so a definition that
only tests reach cannot hide behind ``__all__``.  Dunder and
underscore-private names are out of scope.

Definitions that only tests reach on purpose are on :data:`ALLOWED`,
each with its reason.  An entry that is no longer dead, or no longer
defined, fails the scan too, so the list cannot go stale.
"""

import ast
import functools
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "examples")

_IDENT = re.compile(r"[A-Za-z_]\w*")
_NAME_STRING = re.compile(r"[\w.:]+")

#: ``module path:qualified name`` -> why only tests reach it.
ALLOWED = {
    "repro/analysis/corpus.py:CorpusEntry.leaky": (
        "corpus tests select the leaky fixtures by it"
    ),
    "repro/analysis/corpus.py:CorpusEntry.dynamic_secrets": (
        "the dynamic constant-time harness in tests draws secrets from it"
    ),
    "repro/analysis/symbex/witness.py:load_corpus": (
        "inverse of save_corpus; the committed witness corpus tests read with it"
    ),
    "repro/apps/checksum.py:crc32_words": (
        "the reference CRC the checksum enclave's output is compared against"
    ),
    "repro/arm/cpu.py:ExecutionResult.exception": (
        "the CPU tests' view of the architectural exception kind"
    ),
    "repro/arm/disassembler.py:disassemble": (
        "the disassembler's listing entry point, round-trip tested"
    ),
    "repro/arm/encryption.py:EncryptedMemory": (
        "the physical-attack memory variant (paper section 3.2) that "
        "the encryption and platform-configuration tests swap in"
    ),
    "repro/arm/encryption.py:EncryptedMemory.physical_read": (
        "the cold-boot attacker's interface in the security tests"
    ),
    "repro/arm/encryption.py:EncryptedMemory.physical_write": (
        "the bus-tamper attacker's interface in the security tests"
    ),
    "repro/arm/encryption.py:EncryptedMemory.physical_move": (
        "the splicing attacker's interface in the security tests"
    ),
    "repro/arm/modes.py:Mode.privileged": (
        "architectural mode property pinned by the mode tests"
    ),
    "repro/crypto/sha256.py:sha256_words": (
        "word-level digest the hashlib-vs-pure SHA-256 tests compare"
    ),
    "repro/monitor/pagedb.py:PageDB.live_addrspaces": (
        "quarantine-containment tests assert which enclaves survive with it"
    ),
    "repro/multicore/scheduler.py:MonitorLock.held": (
        "the multicore lock tests' observation of the lock"
    ),
    "repro/multicore/scheduler.py:MultiCoreMachine.replay_sequentially": (
        "the linearisability check's sequential oracle"
    ),
    "repro/multicore/scheduler.py:MultiCoreMachine.concurrent_outcomes": (
        "the linearisability check's concurrent side"
    ),
    "repro/osmodel/adversary.py:AdversarialOS.map_secure_from_secure_memory": (
        "an attack the adversarial-OS security tests mount"
    ),
    "repro/osmodel/adversary.py:AdversarialOS.interrupt_storm": (
        "an attack the adversarial-OS security tests mount"
    ),
    "repro/osmodel/adversary.py:CrossEnclaveAdversary": (
        "the cross-enclave attacker of the pipeline security tests"
    ),
    "repro/osmodel/adversary.py:CrossEnclaveAdversary.hostile_core": (
        "an attack the pipeline security tests mount"
    ),
    "repro/pipeline/campaign.py:RepeatingFaultPlan": (
        "drives a retry budget to exhaustion in the pipeline tests"
    ),
    "repro/pipeline/campaign.py:run_campaign": (
        "single-pipeline entry point of the pinned pipeline report digest"
    ),
    "repro/pipeline/pipelines.py:Pipeline.logical_state": (
        "the pipeline tests' bit-exactness oracle"
    ),
    "repro/security/declassify.py:outcomes_equal_modulo_declassification": (
        "the declassification theorem's comparison, checked by its test"
    ),
    "repro/security/equivalence.py:enc_equivalent": (
        "noninterference relation the property tests check"
    ),
    "repro/security/equivalence.py:adv_equivalent": (
        "noninterference relation the property tests check"
    ),
    "repro/security/noninterference.py:BisimulationHarness": (
        "the noninterference harness the property tests drive"
    ),
    "repro/security/noninterference.py:BisimulationHarness.setup_both": (
        "noninterference harness API the property tests drive"
    ),
    "repro/security/noninterference.py:BisimulationHarness.perturb": (
        "noninterference harness API the property tests drive"
    ),
    "repro/security/noninterference.py:BisimulationHarness.run_trace": (
        "noninterference harness API the property tests drive"
    ),
    "repro/tools/trace.py:Trace.to_json": (
        "SMC trace record format of the golden-trace test"
    ),
    "repro/tools/trace.py:Trace.from_json": (
        "SMC trace replay format of the golden-trace test"
    ),
    "repro/tools/trace.py:TracingMonitor": (
        "SMC record and replay behind the golden-trace test"
    ),
}


def _mentions(node):
    """Every name ``node`` uses, one entry per use."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _NAME_STRING.fullmatch(sub.value):
                yield from _IDENT.findall(sub.value)


def _definitions(tree):
    """``(qualified name, name)`` of module-level defs and their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, kinds):
                        yield f"{node.name}.{sub.name}", sub.name


@functools.lru_cache(maxsize=1)
def scan():
    """Keys (as in :data:`ALLOWED`) of every definition only tests reach,
    and the set of every key the scan saw."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in CALLER_DIRS
        for path in sorted((REPO / top).rglob("*.py"))
    }
    uses = {
        name
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for name in _mentions(tree)
    }
    src = REPO / "src"
    dead, seen = set(), set()
    for path, tree in trees.items():
        if src not in path.parents:
            continue
        for qualname, name in _definitions(tree):
            if name.startswith("_"):
                continue
            key = f"{path.relative_to(src).as_posix()}:{qualname}"
            seen.add(key)
            if name not in uses:
                dead.add(key)
    return dead, seen


def test_every_definition_has_a_caller_outside_tests():
    dead, _seen = scan()
    unexplained = sorted(dead - set(ALLOWED))
    assert not unexplained, (
        "only tests reach these definitions; delete them (with the tests "
        f"that exercise nothing else) or add them to ALLOWED: {unexplained}"
    )


def test_allowlist_is_current():
    dead, seen = scan()
    assert sorted(set(ALLOWED) - seen) == [], "ALLOWED names missing definitions"
    assert sorted(set(ALLOWED) - dead) == [], "ALLOWED names definitions now used"


def test_scan_catches_a_definition_only_tests_reach():
    tree = ast.parse(
        "def used():\n    pass\n\n"
        "def unused():\n    used()\n\n"
        "class Box:\n    def touched(self):\n        pass\n"
        "    def untouched(self):\n        self.touched()\n"
        "\nPATCH = ('mod', 'patched')\n"
        "def patched():\n    '''mentions unused and untouched in prose'''\n"
    )
    uses = set(_mentions(tree))
    names = [name for _qualname, name in _definitions(tree)]
    unused = [name for name in names if name not in uses]
    assert unused == ["unused", "Box", "untouched"]
