"""Sharded campaign execution: fork workers, merge byte-identical reports.

Campaign trials are *embarrassingly parallel by construction*: every
trial rewinds the same captured pre-step state, so a shard that runs
only every ``count``-th trial produces exactly the records a serial run
would have produced for those ordinals.  This module supplies the
pieces that turn that property into a ``--jobs N`` flag:

* :func:`run_shards` — fork ``jobs`` worker processes (POSIX ``fork``
  start method, so the workload closure is inherited, not pickled) and
  collect one picklable result per shard over a pipe;
* :func:`merge_reports` — one merge for every campaign's report, which
  is **byte-identical** to the serial report (:func:`report_digest` is
  the oracle CI pins that claim with);
* :func:`run_sharded` and :func:`differential` (one campaign per
  engine) for any :class:`~repro.faults.driver.Campaign`, and
  :func:`check_witnesses_sharded` for symbex witness replay;
* :func:`usable_jobs` — the CLIs' ``--jobs``, clamped to the CPU count.

Each forked shard is a fresh process with its own main thread, so the
campaigns' ``trial_timeout`` watchdog (``repro.util.watchdog``, SIGALRM
based) keeps working inside shards unchanged.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import multiprocessing
import os
from typing import Callable, List, Optional, Sequence, Tuple


class ShardError(RuntimeError):
    """A worker process failed to produce its shard's result."""


class MergeError(AssertionError):
    """Shard reports disagree on a field every shard must reproduce."""


def usable_jobs(jobs: int) -> int:
    """``jobs`` clamped to the host's CPU count, for the ``--jobs`` CLIs.

    Shards beyond the CPU count only add fork and merge cost (``--jobs 4``
    measured 0.7x serial on a 1-core host), and the merged report is
    byte-identical either way, so the CLIs never fork more.
    :func:`run_shards` itself always forks exactly as asked.
    """
    return max(1, min(jobs, os.cpu_count() or 1))


# -- process scaffolding ----------------------------------------------------


def _shard_main(fn, index: int, count: int, conn) -> None:
    """Worker entry: run one shard, ship the result, exit hard.

    ``os._exit`` skips the parent's inherited atexit/teardown machinery
    — the child must not flush handles or reap resources it shares with
    the parent by fork.
    """
    try:
        conn.send(("ok", fn(index, count)))
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        finally:
            os._exit(0)


def run_shards(fn: Callable[[int, int], object], jobs: int) -> List[object]:
    """Run ``fn(index, jobs)`` for each shard index; return results in order.

    ``jobs <= 1`` (or a platform without the ``fork`` start method) runs
    the single shard inline — the degenerate case is the serial campaign
    itself.  Worker failures surface as :class:`ShardError`; a shard
    that dies without reporting (e.g. OOM-killed) is included with a
    clear message rather than hanging the parent.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1:
        return [fn(0, 1)]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(index, jobs) for index in range(jobs)]
    workers = []
    for index in range(jobs):
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_shard_main, args=(fn, index, jobs, send), daemon=True
        )
        process.start()
        send.close()  # parent keeps only the read end
        workers.append((process, recv))
    results: List[object] = []
    failures: List[str] = []
    for index, (process, recv) in enumerate(workers):
        try:
            status, payload = recv.recv()
        except EOFError:
            status, payload = "err", "worker died without reporting a result"
        recv.close()
        process.join()
        if status == "ok":
            results.append(payload)
        else:
            failures.append(f"shard {index}/{jobs}: {payload}")
    if failures:
        raise ShardError("; ".join(failures))
    return results


# -- digests ----------------------------------------------------------------


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def report_digest(report) -> str:
    """Canonical content digest of a report (or any dataclass tree).

    This is the byte-identity oracle: a sharded run merged back together
    must produce the same digest as the serial run.  Only stored fields
    enter the digest (properties are derived and would double-count).
    """
    payload = json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- merges -----------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MergeError(message)


def merge_reports(shards: Sequence):
    """Merge one campaign's shard reports into its serial report.

    Every field must agree across shards except a step's trial records
    (the field its class names in ``RECORDS``), which interleave by each
    record's ``shard_key``.  A record whose key is None (the pipeline's
    golden trial) is one every shard runs: it must agree, and is kept
    once, ahead of the keyed records.
    """
    _require(bool(shards), "no shard reports to merge")
    return _merge(shards, "report")


def _merge(nodes: Sequence, path: str):
    first = nodes[0]
    if isinstance(first, list):
        _require(all(len(n) == len(first) for n in nodes), f"shards disagree on {path}")
        return [_merge(column, f"{path}[{i}]") for i, column in enumerate(zip(*nodes))]
    if not dataclasses.is_dataclass(first):
        _require(all(node == first for node in nodes), f"shards disagree on {path}")
        return first
    records = getattr(first, "RECORDS", None)
    fields = {}
    for field in dataclasses.fields(first):
        column = [getattr(node, field.name) for node in nodes]
        where = f"{path}.{field.name}"
        fields[field.name] = (
            _interleave(column, where) if field.name == records else _merge(column, where)
        )
    return type(first)(**fields)


def _interleave(columns: Sequence[List], path: str) -> List:
    shared = [[r for r in column if r.shard_key is None] for column in columns]
    _require(all(each == shared[0] for each in shared), f"shards disagree on {path}")
    records = sorted(
        (r for column in columns for r in column if r.shard_key is not None),
        key=lambda record: record.shard_key,
    )
    keys = {record.shard_key for record in records}
    _require(len(keys) == len(records), f"duplicate trial ordinals across shards: {path}")
    return shared[0] + records


# -- sharded campaigns --------------------------------------------------------


def _run_all(campaigns: Sequence, jobs: int) -> List:
    """Each campaign's report, its trials striped across ``jobs`` shards."""

    def shard(index: int, count: int) -> List:
        reports = []
        for campaign in campaigns:
            part = copy.copy(campaign)
            part.shard = (index, count) if count > 1 else None
            reports.append(part.run())
        return reports

    return [merge_reports(column) for column in zip(*run_shards(shard, jobs))]


def run_sharded(campaign, jobs: int):
    """``campaign.run()`` across ``jobs`` forked shards, merged back into
    the serial report."""
    (report,) = _run_all([campaign], jobs)
    return report


def differential(campaigns: Sequence, compare_reports: Callable, jobs: int = 1) -> Tuple:
    """Run one campaign per engine and compare them: ``(*reports,
    mismatches)`` in ``campaigns`` order.

    Each shard runs *all* engines on its trial subset (the engine loop
    is the inner, cheap dimension; the trial sweep is the outer one),
    reports merge per engine, and ``compare_reports(engines, reports)``
    runs on the merged reports — identical to a serial differential.
    """
    if len(campaigns) < 2:
        raise ValueError("differential needs at least two engines")
    reports = _run_all(campaigns, jobs)
    engines = [campaign.engine for campaign in campaigns]
    return (*reports, compare_reports(engines, reports))


def compare_steps(
    engines: Sequence[str], reports: Sequence, fields: Sequence[Tuple[str, str, bool]]
) -> List[str]:
    """Each report against the first, step by step: a mismatch line per
    ``(attribute, what, show values)`` of ``fields`` that differs."""
    base_name, baseline = engines[0], reports[0]
    mismatches: List[str] = []
    for engine, report in zip(engines[1:], reports[1:]):
        for base_step, step in zip(baseline.steps, report.steps):
            for attribute, what, show in fields:
                base, value = getattr(base_step, attribute), getattr(step, attribute)
                if base != value:
                    detail = (
                        f"{base_name} {base}, {engine} {value}"
                        if show
                        else f"{base_name} vs {engine}"
                    )
                    mismatches.append(f"{step.name}: {what} differ ({detail})")
    return mismatches


def check_witnesses_sharded(
    witnesses: Sequence,
    jobs: int,
    *,
    engines: Sequence[str],
    trial_timeout: Optional[float] = None,
) -> List:
    """Sharded symbex witness replay; failures in serial witness order.

    Witnesses stripe across shards by ordinal; each shard boots its own
    per-engine monitors and keeps the harness's post-setup checkpoint
    cache for the witnesses it owns.  Per-witness failure groups merge
    back in ordinal order, so the failure list (and its digest) matches
    the serial ``ReplayHarness.check`` exactly.
    """
    from repro.analysis.symbex.replay import ReplayHarness

    witnesses = list(witnesses)

    def shard(index: int, count: int):
        harness = ReplayHarness(engines=engines)
        groups = []
        for ordinal, witness in enumerate(witnesses):
            if ordinal % count != index:
                continue
            groups.append(
                (ordinal, harness.check([witness], trial_timeout=trial_timeout))
            )
        return groups

    merged = sorted(
        (group for shard_groups in run_shards(shard, jobs) for group in shard_groups),
        key=lambda group: group[0],
    )
    return [failure for _, failures in merged for failure in failures]
