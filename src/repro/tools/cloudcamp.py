"""Enclave-cloud chaos campaign CLI.

Kills workers mid-request at swept injection points and gates on the
absolute contract (see ``repro.cloud.chaos``): every request terminates
bit-exact against the pure in-process golden or with a typed retryable
error, no hangs, no partial state, clean post-campaign audits.

Usage::

    python -m repro.tools.cloudcamp                     # run, print a table
    python -m repro.tools.cloudcamp --check             # CI gate (exit 1)
    python -m repro.tools.cloudcamp --kill-stride 4     # denser kill sweep
    python -m repro.tools.cloudcamp --kinds seal,sign   # restrict kinds
    python -m repro.tools.cloudcamp --workers 4

``--kill-stride N`` samples every N-th machine-visible monitor
operation as a kill point (plus the on-dequeue and after-work-before-
reply extremes, always included).  Smaller is denser and slower.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cloud.chaos import ChaosCampaign, ChaosReport
from repro.tools.campaign_cli import split_list
from repro.util.watchdog import TrialTimeout, time_limit


def _print_report(report: ChaosReport) -> None:
    print(
        f"engine={report.engine} workers={report.workers} "
        f"kill-stride={report.kill_stride} seed={report.seed:#x}"
    )
    print(f"{'kind':<10} {'ops':>5} {'kill points':>12}")
    for kind, ops in report.ops_per_kind.items():
        print(f"{kind:<10} {ops:>5} {report.kill_points[kind]:>12}")
    print(
        f"requests: {report.submitted} submitted, {report.completed} "
        f"completed, {report.ok} bit-exact, "
        f"{report.retryable_failures} typed-retryable, {report.hangs} hangs"
    )
    print(
        f"pool:     {report.crashes} crashes, {report.respawns} respawns, "
        f"{report.retries} retries, {report.degraded} degraded, "
        f"{report.worker_audits} clean worker audits"
    )
    for violation in report.violations[:20]:
        print(f"  FAIL: {violation}")
    if len(report.violations) > 20:
        print(f"  ... and {len(report.violations) - 20} more")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.cloudcamp",
        description="kill enclave-cloud workers mid-request; gate on exactness",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any violation or hang (CI gate); without it, "
        "report and exit 0",
    )
    parser.add_argument("--kill-stride", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--engine", choices=("fast", "reference", "turbo"), default="turbo"
    )
    parser.add_argument(
        "--kinds",
        default=None,
        help="comma-separated request kinds (default: all)",
    )
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xCA05)
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock per-dispatch timeout; a wedged worker is killed "
        "and the request retried",
    )
    parser.add_argument(
        "--attempts",
        type=int,
        default=4,
        help="max dispatch attempts before a typed worker_crashed failure",
    )
    parser.add_argument(
        "--global-timeout",
        type=float,
        default=180.0,
        metavar="SECONDS",
        help="hang detector: any request still pending after this fails "
        "the campaign",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog over the whole campaign (outer CI "
        "safety net; --global-timeout bounds in-flight requests, this "
        "bounds everything including setup and teardown)",
    )
    args = parser.parse_args(argv)

    try:
        campaign = ChaosCampaign(
            kinds=split_list(args.kinds),
            workers=args.workers,
            engine=args.engine,
            kill_stride=args.kill_stride,
            seed=args.seed,
            request_timeout=args.request_timeout,
            max_attempts=args.attempts,
            global_timeout=args.global_timeout,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        with time_limit(args.timeout, label="cloudcamp"):
            report = campaign.run()
    except TrialTimeout as timeout:
        print(f"cloudcamp: {timeout}")
        return 1
    _print_report(report)
    if report.passed:
        print(
            "cloudcamp: every request terminated bit-exact or typed-retryable; "
            "all audits clean"
        )
        return 0
    print(f"cloudcamp: {len(report.violations)} violation(s), {report.hangs} hang(s)")
    return 1 if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
