"""Bit-flip campaign CLI.

Runs the exhaustive single-bit-flip campaign against the monitor's
memory-integrity engine (see ``repro.faults.bitflip``): at each
quiescent lifecycle step, flip one bit of one monitor-critical word —
PageDB entries, integrity-tag arrays, enclave metadata, enclave
code/data — then let the OS drive the lifecycle to completion.  Every
trial must end benign, repaired, or quarantined-with-containment; a
wrong enclave result or a final state differing from the unflipped
golden run fails the campaign.

Usage::

    python -m repro.tools.bitflip                    # run, print a table
    python -m repro.tools.bitflip --check            # CI gate (exit 1 on violation)
    python -m repro.tools.bitflip --engine both      # fast/reference differential
    python -m repro.tools.bitflip --engine all       # fast/reference/turbo differential
    python -m repro.tools.bitflip --targets pagedb,itag
    python -m repro.tools.bitflip --stride 97        # every 97th (site, bit) pair

``--stride N`` samples every N-th (site, bit) pair; 1 is exhaustive (tens
of thousands of trials — minutes, not seconds).  The other options are
shared with every campaign CLI (``repro.tools.campaign_cli``).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import List

from repro.faults.bitflip import (
    TARGET_FAMILIES,
    BitflipCampaign,
    BitflipReport,
    compare_reports,
)
from repro.tools import campaign_cli
from repro.tools.campaign_cli import CampaignTool, engine_leg, split_list


def _print_report(report: BitflipReport) -> None:
    print(f"engine={report.engine} seed={report.seed:#x} stride={report.stride}")
    header = (
        f"{'step':<12} {'sites':>6} {'trials':>7} {'benign':>7} "
        f"{'repaired':>9} {'quarantined':>12} {'violations':>11}"
    )
    print(header)
    for step in report.steps:
        print(
            f"{step.name:<12} {step.sites:>6} {step.trials:>7} {step.benign:>7} "
            f"{step.repaired:>9} {step.quarantined:>12} {len(step.violations):>11}"
        )
    counts = report.outcome_counts
    print(
        f"{'total':<12} {'':>6} {report.total_trials:>7} {counts['benign']:>7} "
        f"{counts['repaired']:>9} {counts['quarantined']:>12} "
        f"{len(report.violations):>11}"
    )


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--targets",
        default=None,
        help=f"comma-separated flip-target families {TARGET_FAMILIES}",
    )
    parser.add_argument("--secure-pages", type=int, default=16)


def _legs(args) -> List[List[BitflipCampaign]]:
    return engine_leg(
        args,
        partial(
            BitflipCampaign,
            secure_pages=args.secure_pages,
            targets=split_list(args.targets),
        ),
    )


TOOL = CampaignTool(
    name="bitflip",
    description="memory-integrity bit-flip campaign",
    seed=0xB17F11B,
    stride=1,
    passed="every injection was detected and contained (or provably benign)",
    add_arguments=_add_arguments,
    legs=_legs,
    print_report=_print_report,
    compare_reports=compare_reports,
)

main = partial(campaign_cli.main, TOOL)


if __name__ == "__main__":
    sys.exit(main())
