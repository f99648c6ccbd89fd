"""Symbolic values and the lightweight constraint solver.

Every symbolic value ranges over an explicit finite domain (page
numbers, curated mapping words, booleans, enum codes), which keeps the
solver complete without an external SMT dependency: constraints are
propagated as candidate-set (interval) filtering plus pairwise
equality/disequality/ordering arc consistency, and full satisfiability
falls back to backtracking enumeration over the (tiny) domains — the
"concrete-enumeration fallback" of the design.

Symbolic ints overload comparisons to return :class:`SymBool`; using a
``SymBool`` in a branch (``__bool__``) asks the active
:class:`~repro.analysis.symbex.engine.PathContext` for a decision,
which is where path forking happens.  Operations that need a concrete
value (indexing, bit operations) concretize: the context forks over the
remaining feasible domain values.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

Constraint = Tuple  # ('c', op, var, const) | ('v', op, a, b) | ('in'/'notin', var, frozenset)

_NEGATION = {
    "eq": "ne",
    "ne": "eq",
    "lt": "ge",
    "ge": "lt",
    "le": "gt",
    "gt": "le",
}

_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


class Unsatisfiable(Exception):
    """A constraint set admits no model."""


class SymVar:
    """One symbolic variable over an explicit finite integer domain."""

    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: Iterable[int]):
        self.name = name
        self.domain = tuple(sorted(set(int(v) for v in domain)))
        if not self.domain:
            raise ValueError(f"variable {name} has an empty domain")

    def __repr__(self) -> str:
        return f"SymVar({self.name})"


def negate(constraint: Constraint) -> Constraint:
    kind = constraint[0]
    if kind == "c":
        _, op, var, const = constraint
        return ("c", _NEGATION[op], var, const)
    if kind == "v":
        _, op, a, b = constraint
        return ("v", _NEGATION[op], a, b)
    if kind == "in":
        return ("notin", constraint[1], constraint[2])
    if kind == "notin":
        return ("in", constraint[1], constraint[2])
    raise ValueError(f"unknown constraint {constraint!r}")


def render_constraint(constraint: Constraint) -> str:
    kind = constraint[0]
    symbol = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
    if kind == "c":
        _, op, var, const = constraint
        return f"{var.name}{symbol[op]}{const}"
    if kind == "v":
        _, op, a, b = constraint
        return f"{a.name}{symbol[op]}{b.name}"
    if kind == "in":
        return f"{constraint[1].name}in{sorted(constraint[2])}"
    if kind == "notin":
        return f"{constraint[1].name}notin{sorted(constraint[2])}"
    raise ValueError(f"unknown constraint {constraint!r}")


class ConstraintStore:
    """Candidate sets per variable plus pairwise links, kept arc-consistent."""

    def __init__(self) -> None:
        #: var -> sorted tuple of still-feasible values
        self.candidates: Dict[SymVar, Tuple[int, ...]] = {}
        #: var-var constraints ('v', op, a, b), filtered to fixpoint
        self.links: List[Constraint] = []

    def copy(self) -> "ConstraintStore":
        clone = ConstraintStore()
        clone.candidates = dict(self.candidates)
        clone.links = list(self.links)
        return clone

    def register(self, var: SymVar) -> None:
        if var not in self.candidates:
            self.candidates[var] = var.domain

    # -- constraint application -------------------------------------------

    def assert_true(self, *constraints: Constraint) -> None:
        """Add constraints; raises :class:`Unsatisfiable` on conflict."""
        for constraint in constraints:
            self._apply(constraint)
        self._propagate()

    def _apply(self, constraint: Constraint) -> None:
        kind = constraint[0]
        if kind == "c":
            _, op, var, const = constraint
            self.register(var)
            cmp = _CMP[op]
            self.candidates[var] = tuple(
                v for v in self.candidates[var] if cmp(v, const)
            )
            if not self.candidates[var]:
                raise Unsatisfiable(render_constraint(constraint))
        elif kind in ("in", "notin"):
            _, var, values = constraint
            self.register(var)
            keep = (
                (lambda v: v in values) if kind == "in" else (lambda v: v not in values)
            )
            self.candidates[var] = tuple(v for v in self.candidates[var] if keep(v))
            if not self.candidates[var]:
                raise Unsatisfiable(render_constraint(constraint))
        elif kind == "v":
            _, op, a, b = constraint
            self.register(a)
            self.register(b)
            self.links.append(constraint)
        else:
            raise ValueError(f"unknown constraint {constraint!r}")

    def _propagate(self) -> None:
        """Arc consistency over the pairwise links, to fixpoint."""
        changed = True
        while changed:
            changed = False
            for link in self.links:
                _, op, a, b = link
                cmp = _CMP[op]
                cand_a = self.candidates[a]
                cand_b = self.candidates[b]
                new_a = tuple(va for va in cand_a if any(cmp(va, vb) for vb in cand_b))
                new_b = tuple(vb for vb in cand_b if any(cmp(va, vb) for va in cand_a))
                if new_a != cand_a:
                    self.candidates[a] = new_a
                    changed = True
                if new_b != cand_b:
                    self.candidates[b] = new_b
                    changed = True
                if not new_a or not new_b:
                    raise Unsatisfiable(render_constraint(link))

    # -- queries ------------------------------------------------------------

    def feasible(self, *constraints: Constraint) -> bool:
        """Would adding ``constraints`` keep the store satisfiable?"""
        trial = self.copy()
        try:
            trial.assert_true(*constraints)
        except Unsatisfiable:
            return False
        return trial.satisfiable()

    def satisfiable(self) -> bool:
        return self._solve(first_only=True) is not None

    def value_of(self, var: SymVar) -> Optional[int]:
        """The variable's value if it is pinned to a single candidate."""
        cand = self.candidates.get(var, var.domain)
        return cand[0] if len(cand) == 1 else None

    def feasible_values(self, var: SymVar) -> Tuple[int, ...]:
        """Values of ``var`` that extend to a full model (enumeration)."""
        self.register(var)
        out = []
        for value in self.candidates[var]:
            if self.feasible(("c", "eq", var, value)):
                out.append(value)
        return tuple(out)

    def model(self) -> Dict[SymVar, int]:
        """One concrete assignment satisfying every constraint."""
        solution = self._solve(first_only=True)
        if solution is None:
            raise Unsatisfiable("no model")
        return solution

    # -- backtracking enumeration (domains are tiny) -------------------------

    def _solve(self, first_only: bool) -> Optional[Dict[SymVar, int]]:
        variables = sorted(self.candidates, key=lambda v: v.name)
        links = self.links

        def consistent(assignment: Dict[SymVar, int]) -> bool:
            for _, op, a, b in links:
                if a in assignment and b in assignment:
                    if not _CMP[op](assignment[a], assignment[b]):
                        return False
            return True

        def backtrack(index: int, assignment: Dict[SymVar, int]):
            if index == len(variables):
                return dict(assignment)
            var = variables[index]
            for value in self.candidates[var]:
                assignment[var] = value
                if consistent(assignment):
                    found = backtrack(index + 1, assignment)
                    if found is not None:
                        return found
            assignment.pop(var, None)
            return None

        return backtrack(0, {})


# ---------------------------------------------------------------------------
# Symbolic values
# ---------------------------------------------------------------------------


def _context():
    from repro.analysis.symbex.engine import current_context

    return current_context()


class SymBool:
    """A single comparison with its negation; branching forks the path."""

    __slots__ = ("pos", "neg", "label")

    def __init__(self, pos: Constraint, neg: Constraint, label: str):
        self.pos = pos
        self.neg = neg
        self.label = label

    def __bool__(self) -> bool:
        return _context().decide_bool(self)

    def __invert__(self) -> "SymBool":
        return SymBool(self.neg, self.pos, f"!({self.label})")


class SymInt:
    """A symbolic integer: a bare variable over a finite domain.

    Comparisons stay symbolic; anything needing a concrete value
    (indexing, bit operations, arithmetic) concretizes through the
    active path context, forking over the feasible domain values.
    """

    __slots__ = ("var",)

    def __init__(self, var: SymVar):
        self.var = var

    # -- comparisons (symbolic) ---------------------------------------------

    def _cmp(self, op: str, other) -> SymBool:
        if isinstance(other, SymInt):
            pos: Constraint = ("v", op, self.var, other.var)
            label = f"{self.var.name}{op}{other.var.name}"
        elif isinstance(other, int):
            pos = ("c", op, self.var, other)
            label = f"{self.var.name}{op}{other}"
        else:
            return NotImplemented
        return SymBool(pos, negate(pos), label)

    def __eq__(self, other):  # type: ignore[override]
        return self._cmp("eq", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._cmp("ne", other)

    def __lt__(self, other):
        return self._cmp("lt", other)

    def __le__(self, other):
        return self._cmp("le", other)

    def __gt__(self, other):
        return self._cmp("gt", other)

    def __ge__(self, other):
        return self._cmp("ge", other)

    def __hash__(self):
        # Identity hash: symbolic equality must not leak into dict/set
        # membership (spec code uses pagenos as dict keys).
        return object.__hash__(self)

    # -- truthiness ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._cmp("ne", 0))

    # -- concretization fallback --------------------------------------------

    def concretize(self) -> int:
        """Pin to one feasible value, forking over the alternatives."""
        return _context().concretize(self.var)

    def __index__(self) -> int:
        return self.concretize()

    def __int__(self) -> int:
        return self.concretize()

    def _concrete_binop(self, other, op):
        if isinstance(other, SymInt):
            other = other.concretize()
        return op(self.concretize(), other)

    def __and__(self, other):
        return self._concrete_binop(other, lambda a, b: a & b)

    def __rand__(self, other):
        return self._concrete_binop(other, lambda a, b: b & a)

    def __or__(self, other):
        return self._concrete_binop(other, lambda a, b: a | b)

    def __rshift__(self, other):
        return self._concrete_binop(other, lambda a, b: a >> b)

    def __lshift__(self, other):
        return self._concrete_binop(other, lambda a, b: a << b)

    def __add__(self, other):
        return self._concrete_binop(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._concrete_binop(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._concrete_binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._concrete_binop(other, lambda a, b: b - a)

    def __mod__(self, other):
        return self._concrete_binop(other, lambda a, b: a % b)

    def __repr__(self) -> str:
        return f"SymInt({self.var.name})"


SymValue = Union[int, SymInt]
