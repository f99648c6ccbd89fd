"""Command line of the repo benchmark (see bench/README.md).

    python -m bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                    [--spans DIR] [--out PATH]
    python -m bench compare BASE.json NEW.json

Prints every metric with its unit and sample count, checks outputs,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace`` its per-layer metrics).  The exit status is nonzero if any
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
from typing import Dict, List, Optional

from bench import campaign, serve
from bench.compare import compare
from bench.workloads import SERVE_WORKLOADS, WORKLOAD_NAMES, Result

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = pathlib.Path(__file__).with_name("expected.json")
DEFAULT_SEED = 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans: Optional[str] = None) -> Result:
    if name in SERVE_WORKLOADS:
        workload = SERVE_WORKLOADS[name]
        if trace:
            return serve.run_traced(workload, seed, spans=spans)
        return serve.run(workload, seed, seconds)
    if trace:
        return campaign.run_traced(seed, spans=spans)
    return campaign.run(seed, seconds)


def check_pins(result: Result, seed: int) -> None:
    """On the pinned seed, compare digests and cycle totals with
    ``expected.json``."""
    expected = json.loads(EXPECTED_JSON.read_text())
    if seed != expected["seed"]:
        return
    for key, want in expected["workloads"][result.workload].items():
        got = result.pins.get(key)
        if got is not None and got != want:
            result.problems.append(f"{key} {got} does not match expected.json ({want})")


def metrics(result: Result, benchmark: Dict, trace: bool) -> Dict[str, Dict]:
    """The listed metrics, in BENCHMARK.json order, with units.  A
    per-layer metric of a layer the workload never enters reads 0."""
    out = {}
    for spec in benchmark["per_layer" if trace else "end_to_end"]:
        name = spec["name"]
        if name not in result.values and not trace:
            raise KeyError(f"{result.workload} measured no {name}")
        out[name] = {"value": result.values.get(name, 0.0), "unit": spec["unit"]}
    return out


def _report(result: Result, table: Dict[str, Dict]) -> None:
    print(f"== {result.workload}: attempted {result.attempted}, failed "
          f"{result.failed}, correct {result.correct}")
    for name, entry in table.items():
        rounds = result.rounds.get(name)
        spread = f"  rounds: {' '.join(f'{x:.4g}' for x in rounds)}" if rounds else ""
        print(f"  {name:40} {entry['value']:14.6g} {entry['unit']:8} "
              f"n={result.samples.get(name, 0)}{spread}")
    # Measured but not listed: per-layer milliseconds, per-kind latency
    # and per-campaign rates, which would read 0 on every workload
    # without that layer, kind or campaign.
    for name, value in result.values.items():
        if name not in table and value:
            print(f"  {name:40} {value:14.6g} {'':8} n={result.samples.get(name, 0)}")
    for key, value in result.pins.items():
        print(f"  {key}: {value}")
    for problem in result.problems:
        print(f"  MISMATCH: {problem}", file=sys.stderr)


def _seed(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return value


def _compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    docs = [json.loads(pathlib.Path(p).read_text()) for p in (args.base, args.new)]
    rows, ok = compare(json.loads(BENCHMARK_JSON.read_text()), *docs)
    print("\n".join(rows))
    return 0 if ok else 1


def _terminate(signum, frame) -> None:
    # Unwind, so a serve round in flight is killed with its workers.
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return _compare_main(argv[1:])
    signal.signal(signal.SIGTERM, _terminate)
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all")
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    # Every benchmark run is invoked as --workload W --seed N --seconds S
    # --trace 0|1, with S the run_seconds of BENCHMARK.json.
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="timed seconds per workload",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from an in-process traced run",
    )
    parser.add_argument("--spans", metavar="DIR", help="write traced spans here as JSONL")
    parser.add_argument("--out", metavar="PATH", help="write the run (compare's input)")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)

    doc = {"seed": args.seed, "trace": trace, "workloads": {}}
    for name in names:
        spans = None
        if trace and args.spans:
            os.makedirs(args.spans, exist_ok=True)
            spans = os.path.join(args.spans, f"{name}.spans.jsonl")
        result = run_workload(name, args.seed, args.seconds, trace, spans)
        check_pins(result, args.seed)
        table = metrics(result, benchmark, trace)
        _report(result, table)
        for metric, entry in table.items():
            entry["samples"] = result.samples.get(metric, 0)
            entry["rounds"] = result.rounds.get(metric, [entry["value"]])
        doc["workloads"][name] = {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": table,
        }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    runs = doc["workloads"].values()
    correct = all(run["correct"] for run in runs)
    if len(names) == 1:
        final_metrics = {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in doc["workloads"][names[0]]["metrics"].items()
        }
    else:
        final_metrics = {
            f"{name}.{metric}": {"value": entry["value"], "unit": entry["unit"]}
            for name, run in doc["workloads"].items()
            for metric, entry in run["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": final_metrics,
    }))
    return 0 if correct else 1
