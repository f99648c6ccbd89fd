"""Fault-injection campaign CLI.

Runs the exhaustive per-step crash campaign over a full enclave
lifecycle (see ``repro.faults.campaign``): for every machine-visible
monitor operation of every lifecycle step, kill the monitor there,
recover, audit, and have the OS retry path finish the lifecycle.

Usage::

    python -m repro.tools.faultcamp                 # run, print a table
    python -m repro.tools.faultcamp --check         # CI gate (exit 1 on any violation)
    python -m repro.tools.faultcamp --engine both   # fast/reference differential
    python -m repro.tools.faultcamp --engine all    # fast/reference/turbo differential
    python -m repro.tools.faultcamp --steps init_addrspace,map_secure,remove

``--steps`` restricts *injection* to the named steps (prefix match, so
``remove`` covers every Remove); the lifecycle itself always runs in
full.  ``--stride N`` injects at every N-th operation.  The other
options are shared with every campaign CLI (``repro.tools.campaign_cli``).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import List

from repro.faults.campaign import CampaignReport, LifecycleCampaign, compare_reports
from repro.tools import campaign_cli
from repro.tools.campaign_cli import CampaignTool, engine_leg, split_list


def _print_report(report: CampaignReport) -> None:
    print(f"engine={report.engine} seed={report.seed:#x}")
    print(f"{'step':<16} {'ops':>5} {'trials':>7} {'violations':>11}")
    for step in report.steps:
        print(
            f"{step.name:<16} {step.fault_points:>5} {step.trials:>7} "
            f"{len(step.violations):>11}"
        )
    print(
        f"{'total':<16} {report.total_fault_points:>5} "
        f"{report.total_trials:>7} {len(report.violations):>11}"
    )


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--steps",
        default=None,
        help="comma-separated step names (prefix match) to inject on",
    )
    parser.add_argument("--secure-pages", type=int, default=16)


def _legs(args) -> List[List[LifecycleCampaign]]:
    return engine_leg(
        args,
        partial(
            LifecycleCampaign,
            secure_pages=args.secure_pages,
            inject_steps=split_list(args.steps),
        ),
    )


TOOL = CampaignTool(
    name="faultcamp",
    description="monitor crash-consistency campaign",
    seed=0xC0FFEE,
    stride=1,
    passed="every injection point recovered to a quiescent state",
    add_arguments=_add_arguments,
    legs=_legs,
    print_report=_print_report,
    compare_reports=compare_reports,
)

main = partial(campaign_cli.main, TOOL)


if __name__ == "__main__":
    sys.exit(main())
