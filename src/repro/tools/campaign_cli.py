"""The scaffold shared by the campaign CLIs (faultcamp, bitflip, pipecamp).

A CLI describes itself as a :class:`CampaignTool` (its own arguments,
how to build its campaigns, how to print a report); the scaffold owns
the rest:

* the options ``--check``, ``--engine``, ``--seed``, ``--stride``,
  ``--timeout`` (a per-trial watchdog), ``--jobs`` and ``--verify-serial``;
* a ``ValueError`` from building the campaigns (a zero stride, an
  unknown step, target or pipeline) is a usage error: exit 2;
* each leg (one campaign, or one per engine for a differential) runs
  across ``--jobs`` forked shards (at most one per CPU) and prints its
  report digest;
  ``--verify-serial`` re-runs it serially and fails on any divergence;
* with ``--check`` any violation exits 1; without it the run only
  reports, and exits 0.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.faults.parallel import differential, report_digest, run_sharded, usable_jobs

#: ``--engine`` values that name a differential over several engines.
ENGINE_SETS = {"both": ("fast", "reference"), "all": ("fast", "reference", "turbo")}


@dataclass(frozen=True)
class CampaignTool:
    """One campaign CLI: its name, defaults and hooks."""

    name: str
    description: str
    seed: int
    stride: int
    #: The closing line of a run without violations.
    passed: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    #: Parsed arguments -> legs; a leg is one campaign, or one per
    #: engine (a differential judged by ``compare_reports``).
    legs: Callable[[argparse.Namespace], List[Sequence]]
    print_report: Callable[[object], None]
    engines: Tuple[str, ...] = ("fast", "reference", "turbo", *ENGINE_SETS)
    engine_help: str = "'both' = fast/reference differential, 'all' adds turbo"
    #: Names a report in the digest lines.
    tag: Callable[[object], str] = lambda report: report.engine
    compare_reports: Optional[Callable] = None
    #: Checks after the legs; returns their violations.
    extra: Optional[Callable[[argparse.Namespace], List[str]]] = None


def shared(args) -> dict:
    """The campaign parameters every CLI passes through unchanged."""
    return dict(seed=args.seed, stride=args.stride, trial_timeout=args.timeout)


def engine_leg(args, make: Callable) -> List[List]:
    """One leg: ``make(engine, **shared(args))`` per ``--engine`` engine."""
    engines = ENGINE_SETS.get(args.engine, (args.engine,))
    return [[make(engine=engine, **shared(args)) for engine in engines]]


def split_list(text: Optional[str]) -> Optional[List[str]]:
    """A comma-separated option value as a list; None when absent."""
    if not text:
        return None
    return [token.strip() for token in text.split(",") if token.strip()]


def _print_violations(violations: List[str], limit: int = 20) -> None:
    for violation in violations[:limit]:
        print(f"  FAIL: {violation}")
    if len(violations) > limit:
        print(f"  ... and {len(violations) - limit} more")


def _parser(tool: CampaignTool) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.tools.{tool.name}", description=tool.description
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any violation (CI gate); without it, report and exit 0",
    )
    parser.add_argument(
        "--engine",
        choices=tool.engines,
        default="turbo",
        help=f"execution engine (default: turbo); {tool.engine_help}",
    )
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=tool.seed)
    parser.add_argument(
        "--stride",
        type=int,
        default=tool.stride,
        help="run a trial at every N-th injection point (1 = exhaustive)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per trial: a wedged trial fails that "
        "trial with a recorded violation instead of hanging the run",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard trials across N forked workers, at most one per CPU; "
        "the merged report is byte-identical to the serial run (1 = serial)",
    )
    parser.add_argument(
        "--verify-serial",
        action="store_true",
        help="also run each campaign serially and fail unless the report "
        "digests match the --jobs run exactly",
    )
    tool.add_arguments(parser)
    return parser


def _run(tool: CampaignTool, leg: Sequence, jobs: int) -> Tuple[List, List[str]]:
    """Run one leg; ``(reports, engine mismatches)``."""
    if len(leg) == 1:
        return [run_sharded(leg[0], jobs)], []
    *reports, mismatches = differential(leg, tool.compare_reports, jobs)
    return reports, mismatches


def _run_leg(tool: CampaignTool, leg: Sequence, args) -> List[str]:
    reports, mismatches = _run(tool, leg, usable_jobs(args.jobs))
    failures: List[str] = []
    for report in reports:
        tool.print_report(report)
        failures.extend(report.violations)
        print(f"report digest [{tool.tag(report)}]: {report_digest(report)}")
    if mismatches:
        print("engine differential mismatches:")
        _print_violations(mismatches)
        failures.extend(mismatches)
    if args.verify_serial:
        serial_reports, serial_mismatches = _run(tool, leg, 1)
        for report, serial in zip(reports, serial_reports):
            jobs_digest, serial_digest = report_digest(report), report_digest(serial)
            verdict = "OK" if jobs_digest == serial_digest else "MISMATCH"
            print(
                f"verify-serial [{tool.tag(report)}]: jobs={args.jobs} "
                f"{jobs_digest[:16]} vs serial {serial_digest[:16]}: {verdict}"
            )
            if jobs_digest != serial_digest:
                failures.append(
                    f"--jobs {args.jobs} report diverged from serial ({tool.tag(report)})"
                )
        if mismatches != serial_mismatches:
            failures.append("--jobs differential mismatches diverged from serial")
    return failures


def main(tool: CampaignTool, argv: Optional[List[str]] = None) -> int:
    parser = _parser(tool)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    try:
        legs = tool.legs(args)
    except ValueError as exc:
        parser.error(str(exc))
    failures: List[str] = []
    for leg in legs:
        failures.extend(_run_leg(tool, leg, args))
    if tool.extra is not None:
        failures.extend(tool.extra(args))
    if failures:
        _print_violations(failures)
        print(f"{tool.name}: {len(failures)} violation(s)")
        return 1 if args.check else 0
    print(f"{tool.name}: {tool.passed}")
    return 0
