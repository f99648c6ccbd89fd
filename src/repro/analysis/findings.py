"""Finding and report model for the static analyser.

Every rule has a stable ID (``KA001``…), a default severity, and a
pointer to the paper property it checks, so a report line can be read
next to the paper: constant time is section 7.2, privilege separation
section 3, the monitor ABI and calling convention section 5.

Rule families:

* ``KA0xx`` — control-flow well-formedness (CFG construction),
* ``KA1xx`` — secret-taint / constant-time rules,
* ``KA2xx`` — privilege and ABI rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


class Severity(enum.IntEnum):
    """How bad a finding is.  Only ERROR fails a build or the CLI."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """A lint rule: stable ID, one-line title, paper anchor, severity."""

    id: str
    title: str
    paper: str
    severity: Severity


_RULE_TABLE: Tuple[Rule, ...] = (
    # -- control flow (KA0xx) ---------------------------------------------
    Rule("KA001", "undecodable instruction word is reachable", "§5.1", Severity.ERROR),
    Rule("KA002", "control flow can fall off the end of the code region", "§5.1", Severity.ERROR),
    Rule("KA003", "branch target outside the code region", "§5.1", Severity.ERROR),
    Rule("KA004", "unreachable code", "§5.1", Severity.WARNING),
    Rule("KA005", "no reachable exit (svc EXIT)", "§5", Severity.WARNING),
    # -- constant time (KA1xx) --------------------------------------------
    Rule("KA101", "secret-dependent conditional branch", "§7.2", Severity.ERROR),
    Rule("KA102", "secret-indexed load", "§7.2", Severity.ERROR),
    Rule("KA103", "secret-indexed store", "§7.2", Severity.ERROR),
    Rule("KA104", "secret-derived value escapes to OS-visible state", "§3.1", Severity.NOTE),
    # -- privilege & ABI (KA2xx) ------------------------------------------
    Rule("KA201", "privileged instruction in enclave code", "§3", Severity.ERROR),
    Rule("KA202", "trap instruction (udf) is reachable", "§5.1", Severity.WARNING),
    Rule("KA203", "unknown SVC call number", "§5", Severity.ERROR),
    Rule("KA204", "return through uninitialised or clobbered LR", "§5", Severity.ERROR),
    Rule("KA205", "memory access outside the mapped address space", "§5", Severity.ERROR),
    Rule("KA206", "misaligned memory access", "§5.1", Severity.ERROR),
    Rule("KA207", "stack access before SP is established", "§5", Severity.WARNING),
)

RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULE_TABLE}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one instruction.

    ``index`` is the word index into the analysed region; ``va`` the
    instruction's virtual address (base VA + 4·index).
    """

    rule: str
    message: str
    index: int
    va: int
    severity: Severity

    @property
    def title(self) -> str:
        return RULES[self.rule].title

    @property
    def paper(self) -> str:
        return RULES[self.rule].paper

    def render(self) -> str:
        return f"{self.va:#010x}  {self.rule} {self.severity}: {self.message}"


def make_finding(
    rule_id: str,
    message: str,
    index: int,
    base_va: int,
) -> Finding:
    """Build a finding with its rule's severity from the rule table."""
    return Finding(
        rule=rule_id,
        message=message,
        index=index,
        va=base_va + index * 4,
        severity=RULES[rule_id].severity,
    )


@dataclass
class Report:
    """All findings for one analysed program."""

    program: str
    base_va: int
    findings: List[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Sequence[Finding]) -> None:
        self.findings.extend(findings)

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when the program is free of error-severity findings."""
        return not self.errors

    def rule_ids(self) -> List[str]:
        return sorted({f.rule for f in self.findings})

    def sorted(self) -> List[Finding]:
        return sorted(self.findings, key=lambda f: (f.index, f.rule))

    def render(self) -> str:
        """Human-readable report, one line per finding."""
        header = f"{self.program}: " + (
            "clean"
            if not self.findings
            else f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.by_severity(Severity.NOTE))} note(s)"
        )
        lines = [header]
        lines.extend("  " + finding.render() for finding in self.sorted())
        return "\n".join(lines)
