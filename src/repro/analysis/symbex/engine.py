"""The forking path explorer (execution-generated paths).

The explorer runs a thunk — typically "build a scenario PageDB, then
call one ``spec_*`` function on symbolic arguments" — under a
:class:`PathContext`.  Whenever execution hits a branch whose outcome
the constraint store does not already entail, the context records a
*decision*: the current run takes the first feasible option, and every
other feasible option is queued as a decision prefix to re-execute
later.  Spec functions are pure and cheap, so re-execution from the
start per path (the classic execution-generated-testing scheme) is far
simpler than checkpointing the interpreter and costs microseconds.

Every decision carries a human-readable *tag*; the tuple of tags along
a path is its **signature**.  Signatures are the unit of the path
census and of witness deduplication: two leaves that differ only in
which of two interchangeable free pages an argument landed on share a
signature and count as one path class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.symbex.values import (
    Constraint,
    ConstraintStore,
    SymBool,
    SymInt,
    SymVar,
    Unsatisfiable,
)

_CURRENT: List["PathContext"] = []


def current_context() -> "PathContext":
    if not _CURRENT:
        raise RuntimeError(
            "symbolic value used outside a PathExplorer run; symbolic "
            "ints only make sense under explorer control"
        )
    return _CURRENT[-1]


@dataclass(frozen=True)
class Branch:
    """One option at a decision site: a tag plus the constraints taking it."""

    tag: str
    constraints: Tuple[Constraint, ...] = ()
    value: object = None


@dataclass
class PathResult:
    """One fully-explored feasible path."""

    signature: Tuple[str, ...]
    decisions: Tuple[int, ...]
    store: ConstraintStore
    value: object

    def model(self) -> Dict[SymVar, int]:
        return self.store.model()


class PathContext:
    """Per-path decision state: prefix replay, then frontier forking."""

    def __init__(self, prefix: Tuple[int, ...] = ()):
        self.prefix = prefix
        self.store = ConstraintStore()
        self.trail: List[str] = []
        self.decisions: List[int] = []
        self.pending: List[Tuple[int, ...]] = []
        self._vars: Dict[str, SymVar] = {}
        self._decision_index = 0

    # -- variable creation ---------------------------------------------------

    def new_int(self, name: str, domain: Sequence[int]) -> SymInt:
        if name in self._vars:
            raise ValueError(f"duplicate symbolic variable {name!r}")
        var = SymVar(name, domain)
        self._vars[name] = var
        self.store.register(var)
        return SymInt(var)

    # -- decisions -----------------------------------------------------------

    def decide(self, site: str, branches: Sequence[Branch]) -> Branch:
        """Resolve a decision site; forks siblings onto ``pending``.

        Branch feasibility is checked against the current store.  A site
        with exactly one feasible branch is *implied* — its constraints
        are asserted and its tag recorded, but it does not consume a
        decision slot (it re-derives identically on every re-execution).
        """
        feasible = [
            i
            for i, branch in enumerate(branches)
            if self.store.feasible(*branch.constraints)
        ]
        if not feasible:
            raise Unsatisfiable(f"decision site {site}: no feasible branch")
        if len(feasible) == 1:
            pick = feasible[0]
        else:
            slot = self._decision_index
            self._decision_index += 1
            if slot < len(self.prefix):
                pick = self.prefix[slot]
                if pick not in feasible:
                    raise Unsatisfiable(
                        f"decision site {site}: queued branch became infeasible"
                    )
            else:
                pick = feasible[0]
                taken = tuple(self.decisions)
                for other in feasible[1:]:
                    self.pending.append(taken + (other,))
            self.decisions.append(pick)
        chosen = branches[pick]
        if chosen.constraints:
            self.store.assert_true(*chosen.constraints)
        self.trail.append(f"{site}:{chosen.tag}")
        return chosen

    def decide_bool(self, condition: SymBool) -> bool:
        branch = self.decide(
            condition.label,
            (
                Branch(tag="T", constraints=(condition.pos,), value=True),
                Branch(tag="F", constraints=(condition.neg,), value=False),
            ),
        )
        return bool(branch.value)

    def choose(self, site: str, branches: Sequence[Branch]) -> object:
        return self.decide(site, branches).value

    def concretize(self, var: SymVar) -> int:
        """Pin ``var`` to one feasible value, forking over the others."""
        pinned = self.store.value_of(var)
        if pinned is not None:
            return pinned
        values = self.store.feasible_values(var)
        branch = self.decide(
            f"{var.name}:=",
            tuple(
                Branch(tag=str(v), constraints=(("c", "eq", var, v),), value=v)
                for v in values
            ),
        )
        return int(branch.value)  # type: ignore[arg-type]


class PathExplorer:
    """Depth-first enumeration of every feasible decision path.

    More than 200,000 paths is a path explosion: ``explore`` raises.
    """

    def explore(self, thunk: Callable[[PathContext], object]) -> List[PathResult]:
        stack: List[Tuple[int, ...]] = [()]
        results: List[PathResult] = []
        while stack:
            prefix = stack.pop()
            ctx = PathContext(prefix)
            _CURRENT.append(ctx)
            try:
                value = thunk(ctx)
            finally:
                _CURRENT.pop()
            results.append(
                PathResult(
                    signature=tuple(ctx.trail),
                    decisions=tuple(ctx.decisions),
                    store=ctx.store,
                    value=value,
                )
            )
            if len(results) > 200_000:
                raise RuntimeError("path explosion: more than 200000 paths")
            # LIFO: depth-first, deterministic.
            stack.extend(reversed(ctx.pending))
        return results
