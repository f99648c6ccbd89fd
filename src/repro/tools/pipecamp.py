"""Pipeline chaos campaign CLI.

Sweeps stage-kill points across every machine-visible monitor operation
of composite multi-enclave pipelines (``repro.pipeline``) and gates on
the crash-anywhere contract: every trial terminates bit-exact against
the fault-free golden digest or with a typed retryable error — never a
hang, never partial cross-enclave state, never a counter value issued
twice.

Usage::

    python -m repro.tools.pipecamp                    # sweep, print a table
    python -m repro.tools.pipecamp --check            # CI gate (exit 1)
    python -m repro.tools.pipecamp --stride 1         # exhaustive sweep
    python -m repro.tools.pipecamp --pipelines counter-notary
    python -m repro.tools.pipecamp --engine all       # + tri-engine golden leg

``--engine all`` runs the sweep on the turbo engine and adds a bounded
differential leg: the golden run must produce the identical logical
digest on all three execution engines.  The other options are shared
with every campaign CLI (``repro.tools.campaign_cli``).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import List

from repro.pipeline.campaign import (
    DEFAULT_SEED,
    PipelineCampaign,
    PipelineReport,
    tri_engine_digests,
)
from repro.pipeline.pipelines import PIPELINE_KINDS
from repro.tools import campaign_cli
from repro.tools.campaign_cli import CampaignTool, shared, split_list

_ENGINES = ("fast", "reference", "turbo")


def _print_report(report: PipelineReport) -> None:
    print(
        f"{report.pipeline:<18} engine={report.engine} ops={report.ops} "
        f"kill-points={report.kill_points} bit-exact={report.bit_exact} "
        f"typed-retryable={report.retryable}"
    )


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--pipelines",
        default=None,
        help=f"comma-separated pipeline kinds (default: all: "
        f"{','.join(sorted(PIPELINE_KINDS))})",
    )


def _kinds(args) -> List[str]:
    return split_list(args.pipelines) or sorted(PIPELINE_KINDS)


def _legs(args) -> List[List[PipelineCampaign]]:
    engine = "turbo" if args.engine == "all" else args.engine
    return [
        [PipelineCampaign(kind, engine=engine, **shared(args))] for kind in _kinds(args)
    ]


def _tri_engine_golden(args) -> List[str]:
    """``--engine all``: the golden digest must agree on every engine."""
    if args.engine != "all":
        return []
    failures = []
    for kind in _kinds(args):
        digests = tri_engine_digests(kind, _ENGINES, seed=args.seed)
        agree = len(set(digests.values())) == 1
        print(
            f"{kind:<18} tri-engine golden: "
            f"{'agree' if agree else 'SPLIT ' + repr(digests)}"
        )
        if not agree:
            failures.append(f"{kind}: tri-engine golden digests split")
    return failures


TOOL = CampaignTool(
    name="pipecamp",
    description="crash composite enclave pipelines at every monitor "
    "op; gate on bit-exact-or-typed-retryable termination",
    seed=DEFAULT_SEED,
    stride=7,
    engines=_ENGINES + ("all",),
    engine_help="'all' sweeps on turbo and adds the tri-engine golden "
    "differential leg",
    passed="every trial terminated bit-exact or typed-retryable; "
    "invariants and audits clean",
    add_arguments=_add_arguments,
    legs=_legs,
    print_report=_print_report,
    tag=lambda report: report.pipeline,
    extra=_tri_engine_golden,
)

main = partial(campaign_cli.main, TOOL)


if __name__ == "__main__":
    sys.exit(main())
