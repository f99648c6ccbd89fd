"""Symbolic SMC-path exploration CLI: census, gating, witness corpus.

Default mode explores every SMC driver and prints the feasible-path
census (path classes per outcome, per monitor call)::

    python -m repro.tools.pathexp

``--check`` is the CI gate: the census must match the pinned baseline
(``repro/analysis/symbex/baseline.json``) — any drift in the number or
shape of feasible spec paths fails the run until the baseline is
regenerated deliberately with ``--update-baseline`` — and every path's
concrete witness is replayed on the selected engines (default: turbo,
the fastest bit-identical tier; ``--engine all`` runs reference, fast,
and turbo and additionally asserts the three agree bit-for-bit)::

    python -m repro.tools.pathexp --check --engine all

``--emit-corpus DIR`` writes the witness corpus as ``witnesses.json``
plus one lintable program image per distinct enclave program under
``images/`` (consumable by ``python -m repro.tools.lint DIR/images``),
feeding the static-analysis corpus and the generated regression suite.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.symbex.explore import driver_names, explore_smc, get_driver
from repro.analysis.symbex.replay import DEFAULT_ENGINES, ReplayHarness
from repro.analysis.symbex.scenario import PROG_VA, default_program, svc_probe_program
from repro.analysis.symbex.witness import build_witnesses, save_corpus

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "analysis" / "symbex" / "baseline.json"
)
BASELINE_VERSION = 1


def load_baseline(path: pathlib.Path = BASELINE_PATH) -> Optional[Dict]:
    if not path.is_file():
        return None
    with open(path) as handle:
        data = json.load(handle)
    if data.get("version") != BASELINE_VERSION:
        raise SystemExit(f"pathexp: unsupported baseline version in {path}")
    return data["census"]

def save_baseline(census: Dict, path: pathlib.Path = BASELINE_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(
            {"version": BASELINE_VERSION, "census": census},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")


def census_diff(baseline: Dict, census: Dict) -> List[str]:
    """Human-readable census drift, empty when identical."""
    lines = []
    for name in sorted(set(baseline) | set(census)):
        old, new = baseline.get(name), census.get(name)
        if old == new:
            continue
        if old is None:
            lines.append(f"{name}: new driver ({new['paths']} paths) not in baseline")
        elif new is None:
            lines.append(f"{name}: in baseline but not explored")
        else:
            lines.append(
                f"{name}: paths {old['paths']} -> {new['paths']}, "
                f"errors {old['errors']} -> {new['errors']}"
            )
    return lines


def _print_census(census: Dict) -> None:
    width = max(len(name) for name in census) + 2
    print(f"{'SMC':{width}} {'paths':>6} {'leaves':>7}  outcomes")
    for name, entry in census.items():
        outcomes = ", ".join(f"{k}:{v}" for k, v in entry["errors"].items())
        print(f"{name:{width}} {entry['paths']:>6} {entry['leaves']:>7}  {outcomes}")
    print(
        f"{'total':{width}} {sum(e['paths'] for e in census.values()):>6} "
        f"{sum(e['leaves'] for e in census.values()):>7}"
    )


def emit_corpus(directory: pathlib.Path, witnesses, census: Dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    save_corpus(str(directory / "witnesses.json"), witnesses, census)
    images = directory / "images"
    images.mkdir(exist_ok=True)
    programs = {"scenario_default": default_program()}
    for witness in witnesses:
        if witness.kind == "svc":
            label = f"{witness.smc}_{'_'.join(str(a) for a in witness.args)}"
            programs.setdefault(label, svc_probe_program(witness.callno, witness.args))
    for label, words in sorted(programs.items()):
        image = {
            "name": label,
            "base_va": PROG_VA,
            "entry_va": PROG_VA,
            "words": list(words),
        }
        with open(images / f"{label}.json", "w") as handle:
            json.dump(image, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(
        f"pathexp: wrote {len(witnesses)} witnesses and "
        f"{len(programs)} program images to {directory}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.pathexp",
        description="symbolically enumerate and replay every SMC spec path",
    )
    parser.add_argument(
        "--smc",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict to one monitor call (repeatable; see --list)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate mode: census must match the baseline and every witness "
        "must replay against the spec on the selected engines",
    )
    parser.add_argument(
        "--engine",
        default="turbo",
        choices=("all",) + DEFAULT_ENGINES + ("none",),
        help="engines for witness replay under --check (default: turbo, "
        "the fastest bit-identical tier; 'all' replays on every engine, "
        "'none' skips replay and only gates the census)",
    )
    parser.add_argument(
        "--emit-corpus",
        metavar="DIR",
        help="write witnesses.json + lintable program images to DIR",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"rewrite the census baseline ({BASELINE_PATH.name})",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per witness replay: a wedged replay "
        "fails that witness with a clear error instead of hanging CI",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard witness replay across N forked workers "
        "(repro.faults.parallel); the failure list is identical to the "
        "serial harness's (1 = serial)",
    )
    parser.add_argument("--list", action="store_true", help="list SMC drivers")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.update_baseline and args.smc:
        parser.error("--update-baseline requires the full census (no --smc)")

    if args.list:
        for name in driver_names():
            driver = get_driver(name)
            free = ", ".join(driver.free) if driver.free else "-"
            print(f"{name:20} kind={driver.kind:6} free dims: {free}")
        return 0

    names = args.smc or list(driver_names())
    unknown = [name for name in names if name not in driver_names()]
    if unknown:
        parser.error(f"unknown SMC driver(s) {unknown}; see --list")

    results = {name: explore_smc(name) for name in names}
    census = {name: result.census() for name, result in results.items()}
    _print_census(census)

    if args.update_baseline:
        save_baseline(census)
        print(f"pathexp: baseline updated ({BASELINE_PATH})")

    witnesses = []
    for name in names:
        witnesses.extend(build_witnesses(results[name]))
    print(f"pathexp: witness corpus: {len(witnesses)} witnesses / {len(names)} SMCs")

    if args.emit_corpus:
        emit_corpus(pathlib.Path(args.emit_corpus), witnesses, census)

    failed = False
    if args.check and not args.update_baseline:
        baseline = load_baseline()
        if baseline is None:
            print("pathexp: FAIL: no baseline; run --update-baseline and commit it")
            failed = True
        else:
            subset = {name: baseline[name] for name in names if name in baseline}
            drift = census_diff(subset if args.smc else baseline, census)
            if drift:
                print("pathexp: FAIL: census drifted from baseline:")
                for line in drift:
                    print("  " + line)
                print("  (if intended, rerun with --update-baseline and commit)")
                failed = True
            else:
                print("pathexp: census matches baseline")

    if args.check and args.engine != "none":
        engines = DEFAULT_ENGINES if args.engine == "all" else (args.engine,)
        if args.jobs > 1:
            from repro.faults.parallel import check_witnesses_sharded

            failures = check_witnesses_sharded(
                witnesses, args.jobs, engines=engines, trial_timeout=args.timeout
            )
        else:
            harness = ReplayHarness(engines=engines)
            failures = harness.check(witnesses, trial_timeout=args.timeout)
        if failures:
            print(f"pathexp: FAIL: {len(failures)} witness replay failure(s):")
            for failure in failures[:25]:
                print("  " + str(failure))
            if len(failures) > 25:
                print(f"  ... and {len(failures) - 25} more")
            failed = True
        else:
            print(
                f"pathexp: {len(witnesses)} witnesses replayed cleanly on "
                f"{', '.join(engines)}"
            )

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
