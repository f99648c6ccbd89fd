"""Outside-in per-layer tracing: wrap each layer's public entry points.

A :class:`Tracer` is a context manager.  On entry it replaces every
callable in :data:`LAYERS` with a timing wrapper — on the defining class
(and every loaded subclass that overrides it) or, for module functions,
on the defining module *and* every loaded ``repro.*`` module that
imported the function by name, since that copy is the one the importer
looks up at run time.  On exit every attribute is put back to the very
object it was.

Spans are outermost-only within a layer (``SHA256.digest`` calls
``update``; only the outer call is a span).  A span's self time is its
duration minus the durations of the spans directly inside it, so the
self times of all spans add up exactly to the duration of the root
spans, which the workload opens around each op with :meth:`Tracer.op`.
The root's own self time is the time spent in no named layer.

Spans are kept in memory as five floats each (layer, start, end,
parent span, op) and written as JSONL only on request.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.arm import cpu
from repro.cloud import api, template
from repro.crypto import rsa
from repro.crypto.sha256 import SHA256
from repro.faults import audit, bitflip, campaign, snapshot
from repro.monitor import enclave_exec, integrity, komodo
from repro.pipeline import txchannel

#: The layer that owns the time spent in no named layer.
ROOT = "bench"


#: layer -> ((owner, attribute, bytes-counter or None), ...).  An owner
#: is a class (patched with every loaded subclass that overrides the
#: attribute) or a module (patched with every loaded ``repro.*`` module
#: holding the same function object under the same name).
LAYERS: Tuple[Tuple[str, Tuple[Tuple[object, str, Optional[Callable]], ...]], ...] = (
    ("cloud.api", (
        (api.CloudRequest, "from_wire", None),
        (api.CloudResponse, "to_wire", None),
    )),
    ("cloud.template", ((template.EnclaveTemplate, "execute", None),)),
    ("faults.snapshot", ((snapshot.CampaignSnapshot, "restore", None),)),
    ("monitor", ((komodo.KomodoMonitor, "smc", None),)),
    ("monitor.svc", ((enclave_exec, "dispatch_svc", None),)),
    ("monitor.integrity", ((integrity, "precheck", None),)),
    ("arm.cpu", ((cpu.CPU, "run", None),)),
    ("crypto.sha256", (
        (SHA256, "update", lambda args: len(args[1])),
        (SHA256, "update_block_words", lambda args: 64),
        (SHA256, "digest", None),
    )),
    ("crypto.rsa", ((rsa, "sign", None),)),
    ("pipeline.txchannel", (
        (txchannel.TxChannel, "send", None),
        (txchannel.TxChannel, "drain", None),
    )),
    ("faults.audit", (
        (audit, "audit_monitor", None),
        (audit, "secure_state_digest", None),
        (audit, "integrity_consistency", None),
    )),
    ("faults.campaign", (
        (campaign.LifecycleCampaign, "run", None),
        (bitflip.BitflipCampaign, "run", None),
    )),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)


def _class_holders(cls: type, name: str) -> List[type]:
    """``cls`` and every loaded subclass whose own dict defines ``name``."""
    holders, pending = [], [cls]
    while pending:
        klass = pending.pop()
        if name in vars(klass):
            holders.append(klass)
        pending.extend(klass.__subclasses__())
    if cls not in holders:
        raise AttributeError(f"{cls.__qualname__} does not define {name}")
    return holders


def _module_holders(module, name: str) -> List[object]:
    """``module`` and every loaded ``repro.*`` module importing the same
    function by ``name``."""
    original = vars(module)[name]
    return [
        loaded
        for mod_name, loaded in sorted(sys.modules.items())
        if (mod_name == "repro" or mod_name.startswith("repro."))
        and loaded is not None
        and vars(loaded).get(name) is original
    ]


class Tracer:
    """Record spans at every layer boundary while the context is open.

    Aggregates are kept per layer: self seconds, span count, plus
    SHA-256 bytes fed, per-kind ``EnclaveTemplate.execute`` durations
    and simulated cycles retired between each snapshot restore and the
    end of the request or the next restore.
    """

    def __init__(self):
        self._index = {name: i for i, name in enumerate((ROOT,) + LAYER_NAMES)}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sha256_bytes = 0
        self.sim_cycles = 0
        self.execute_s: Dict[str, List[float]] = defaultdict(list)
        #: (layer index, start, end, parent span, op) per span, flattened.
        self.spans = array("d")
        self._stack: List[list] = []  # [layer, start, child seconds, span id]
        self._open = set()
        self._op = -1
        self._op_fixed = False
        self._cycle_mark: Optional[Tuple[object, int]] = None
        self._patches: List[Tuple[object, str, object]] = []
        self.origin = 0.0

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for layer, entries in LAYERS:
                for owner, name, count_bytes in entries:
                    self._patch(layer, owner, name, count_bytes)
        except BaseException:
            self._unpatch()
            raise
        self.origin = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()
        self._close_cycles()

    def _patch(self, layer: str, owner, name: str, count_bytes) -> None:
        if isinstance(owner, type):
            for holder in _class_holders(owner, name):
                raw = vars(holder)[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(layer, raw.__func__, count_bytes)
                    )
                else:
                    wrapped = self._wrap(layer, raw, count_bytes)
                self._set(holder, name, raw, wrapped)
            return
        original = vars(owner)[name]
        wrapped = self._wrap(layer, original, count_bytes)
        for holder in _module_holders(owner, name):
            self._set(holder, name, original, wrapped)

    def _set(self, holder, name: str, original, wrapped) -> None:
        self._patches.append((holder, name, original))
        setattr(holder, name, wrapped)

    def _unpatch(self) -> None:
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer: str, fn, count_bytes):
        tracer = self
        is_restore = layer == "faults.snapshot"
        is_execute = layer == "cloud.template"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in tracer._open:
                return fn(*args, **kwargs)
            if count_bytes is not None:
                tracer.sha256_bytes += count_bytes(args)
            if is_restore:
                tracer._close_cycles()
                if not tracer._op_fixed:
                    tracer._op += 1
            tracer._push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._pop()
            if is_restore:
                monitor = args[0].monitor
                tracer._cycle_mark = (monitor, monitor.state.cycles)
            elif is_execute:
                tracer._close_cycles()
                tracer.execute_s[args[1].kind].append(seconds)
            return result

        return traced

    def _push(self, layer: str) -> None:
        self._open.add(layer)
        self._stack.append([layer, perf_counter(), 0.0, len(self.spans) // 5])

    def _pop(self) -> float:
        end = perf_counter()
        layer, start, child, span_id = self._stack.pop()
        self._open.discard(layer)
        seconds = end - start
        self.self_s[layer] += seconds - child
        self.calls[layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += seconds
        self.spans.extend((
            self._index[layer],
            start - self.origin,
            end - self.origin,
            -1 if parent is None else parent[3],
            self._op,
        ))
        return seconds

    def _close_cycles(self) -> None:
        if self._cycle_mark is not None:
            monitor, mark = self._cycle_mark
            self.sim_cycles += monitor.state.cycles - mark
            self._cycle_mark = None

    @contextmanager
    def op(self, op_id: Optional[int] = None):
        """Open a root span.  ``op_id`` tags the spans inside it; without
        one, each snapshot restore starts a new op (a campaign fork)."""
        self._op_fixed = op_id is not None
        if self._op_fixed:
            self._op = op_id
        self._push(ROOT)
        try:
            yield
        finally:
            self._pop()
            self._op_fixed = False

    # -- output --------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans) // 5

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        names = (ROOT,) + LAYER_NAMES
        spans = self.spans
        with open(path, "w") as handle:
            for i in range(0, len(spans), 5):
                handle.write(json.dumps({
                    "span": i // 5,
                    "layer": names[int(spans[i])],
                    "start": spans[i + 1],
                    "end": spans[i + 2],
                    "parent": int(spans[i + 3]),
                    "op": int(spans[i + 4]),
                }) + "\n")

    def layer_metrics(self, ops: int, wall_s: float) -> Dict[str, float]:
        """Per-layer share of the traced wall, calls and self time, plus
        the run-level attribution figures, for ``ops`` ops over
        ``wall_s`` of traced wall."""
        out: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.share"] = self.self_s[layer] / wall_s
            out[f"{layer}.calls_per_op"] = self.calls[layer] / ops
            out[f"{layer}.self_ms_per_op"] = self.self_s[layer] * 1e3 / ops
        out["bench.traced_ms_per_op"] = wall_s * 1e3 / ops
        out["bench.unattributed_share"] = self.self_s[ROOT] / wall_s
        out["crypto.sha256.bytes_per_op"] = self.sha256_bytes / ops
        out["monitor.sim_cycles_per_op"] = self.sim_cycles / ops
        out["bench.spans"] = float(self.span_count)
        return out
