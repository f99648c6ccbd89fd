"""``python -m bench compare BASE.json NEW.json``: judge two runs.

Each end-to-end metric is judged with its direction and bound from
``BENCHMARK.json``:

* **unresolved** — BASE's own rounds spread wider than the bound, and
  NEW's rounds do not all beat all of BASE's;
* **worse** / **better** — the medians differ by more than the bound;
* **within** — otherwise.

A workload's row takes its worst verdict (worse, unresolved, better,
within, in that order).  Any "worse", or any rise in the failed share
of attempted ops, makes the exit status nonzero.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

ORDER = ("worse", "unresolved", "better", "within")


def judge(spec: Dict, base: Dict, new: Dict) -> Tuple[str, float]:
    """Verdict and relative change (NEW vs BASE) for one metric."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b, n = base["value"], new["value"]
    change = (n - b) / b
    worse_by = change if lower else -change
    rounds = base["rounds"]
    if (max(rounds) - min(rounds)) / b > bound:
        beats = all(
            (x < y) if lower else (x > y) for x in new["rounds"] for y in rounds
        )
        return ("better" if beats else "unresolved"), change
    if worse_by > bound:
        return "worse", change
    if -worse_by > bound:
        return "better", change
    return "within", change


def _failed_share(entry: Dict) -> float:
    return entry["failed"] / entry["attempted"]


def compare(benchmark: Dict, base: Dict, new: Dict) -> Tuple[List[str], bool]:
    """One row per workload; ``ok`` is False on any worse or failure rise."""
    rows, ok = [], True
    specs = benchmark["end_to_end"]
    for workload in benchmark["workloads"]:
        name = workload["name"]
        left, right = base["workloads"].get(name), new["workloads"].get(name)
        if left is None or right is None:
            rows.append(f"{name:12} unresolved  (not in both runs)")
            continue
        verdicts, notes = [], []
        for spec in specs:
            metric = spec["name"]
            if metric not in left["metrics"] or metric not in right["metrics"]:
                verdicts.append("unresolved")
                notes.append(f"{metric} missing")
                continue
            verdict, change = judge(spec, left["metrics"][metric], right["metrics"][metric])
            verdicts.append(verdict)
            notes.append(f"{metric} {change:+.1%} {verdict}")
        if _failed_share(right) > _failed_share(left):
            verdicts.append("worse")
            notes.append(
                f"failed share rose {_failed_share(left):.4f} -> {_failed_share(right):.4f}"
            )
        row = min(verdicts, key=ORDER.index)
        ok = ok and row != "worse"
        rows.append(f"{name:12} {row:10}  " + ", ".join(notes))
    return rows, ok
