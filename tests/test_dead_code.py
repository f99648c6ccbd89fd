"""Dead-code scan: every definition in ``src/`` has a caller outside tests.

An AST scan lists the functions, classes and methods defined in
``src/repro`` and fails on any whose name appears nowhere in ``src/``,
``bench/`` or ``examples/`` except at its own definition: code that only
tests reach.  A name counts as used by the shared rule,
:func:`tests.scans.mentions`: prose in docstrings and comments does not
count.  Neither does a package ``__init__.py``: a re-export there is not
a caller, so a definition that only tests reach cannot hide behind
``__all__``.  Dunder and underscore-private names are out of scope.

Definitions that only tests reach on purpose are on :data:`ALLOWED`,
each with its reason; :func:`tests.scans.judge` fails an entry that is
no longer dead, or no longer defined, so the list cannot go stale.
"""

import ast

from tests import scans

CALLER_DIRS = ("src", "bench", "examples")

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


def find(trees):
    """Keys (as in :data:`ALLOWED`) of every definition under ``src/`` that
    no module of ``trees`` names, package ``__init__.py`` files aside, and
    the set of every key the scan saw."""
    uses = {
        name
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for name in scans.names(tree)
    }
    dead, seen = set(), set()
    for path, tree in trees.items():
        if scans.SRC not in path.parents:
            continue
        for qualname, name in _definitions(tree):
            if name.startswith("_"):
                continue
            key = f"{path.relative_to(scans.SRC).as_posix()}:{qualname}"
            seen.add(key)
            if name not in uses:
                dead.add(key)
    return dead, seen


def test_every_definition_has_a_caller_outside_tests():
    unexplained, _stale = scans.judge(*scans.run(find, *CALLER_DIRS), ALLOWED)
    assert not unexplained, (
        "only tests reach these definitions; delete them (with the tests "
        f"that exercise nothing else) or add them to ALLOWED: {unexplained}"
    )


def test_allowlist_is_current():
    _unexplained, stale = scans.judge(*scans.run(find, *CALLER_DIRS), ALLOWED)
    assert not stale, stale
