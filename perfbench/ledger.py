"""Outside-in span tracing of one co-simulation, and the per-layer ledger.

:func:`instrument` replaces the public calls into each layer of a
constructed :class:`repro.CoSimulation` with timing wrappers.  Instance
attributes are patched where the class allows it; ``ReplayBuffer`` and
``ReplayUnit`` use ``__slots__``, so delegating proxies take their place
in ``cs.replay_buffers`` / ``cs.replay_units``.  Two layers are wrapped
on their class instead, for the duration of a traced run
(:func:`trace_classes`): the capture engine, which is built inside
``run()``, and the monitor, whose instance-level overrides are how the
capture-path selection recognises an armed fault.  Nothing under
``src/`` changes.

Every wrapped call records one span (layer, start, end, parent span) in
memory.  A layer's self time is its spans' durations minus the part
covered by child spans; the framework's own loop time is whatever of the
run's wall time no span covers, so the ledger adds up to the wall time.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

#: Layer id -> self-time metric name.  The order fixes the layer ids
#: written to span files.
LAYERS = (
    "dut.cycle_s",
    "dut.uarch_s",
    "dut.monitor_s",
    "isa.s",
    "capture.s",
    "fusion.s",
    "pack.s",
    "unpack.s",
    "channel.send_s",
    "channel.recv_s",
    "checker.s",
    "ref.s",
    "replay.push_s",
    "replay.checkpoint_s",
    "replay.s",
)
(DUT_CYCLE, DUT_UARCH, DUT_MONITOR, ISA, CAPTURE, FUSION, PACK, UNPACK,
 SEND, RECV, CHECKER, REF, REPLAY_PUSH, REPLAY_CHECKPOINT,
 REPLAY) = range(len(LAYERS))

MONITOR_CALLS = ("on_interrupt", "on_step", "on_icache_refill",
                 "on_dcache_refill", "on_l2_refill", "on_tlb_fill",
                 "on_sbuffer_flush", "on_trap_finish", "end_of_cycle_state")
REF_CALLS = ("step", "sync_interrupt", "sync_skip", "sync_sc_failure",
             "checkpoint", "revert", "trim_log")
PACKER_CALLS = ("pack_cycle", "flush", "begin_append", "append_raw",
                "append_units", "end_append")
CAPTURE_CALLS = ("begin_bundle", "end_bundle", "flush")


def _length(value) -> int:
    return len(value) if value is not None else 0


class SpanRecorder:
    """The spans and call counts of one traced run, kept in memory.

    ``calls[key]`` counts calls of one wrapped function; ``sizes[key]``
    accumulates a per-call quantity (events in, items out, ...).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.layer = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Dict[str, List[int]] = {}
        self.sizes: Dict[str, List[int]] = {}
        self._current = [-1]

    def wrap(self, fn: Callable, layer: int, key: str,
             size: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped to record a span of ``layer`` per call.

        ``size(args, result)``, when given, is added to ``sizes[key]``.
        """
        layer_append = self.layer.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        starts = self.start
        ends = self.end
        current = self._current
        calls = self.calls.setdefault(key, [0])
        total = self.sizes.setdefault(key, [0]) if size else None
        clock = perf_counter

        def traced(*args, **kwargs):
            parent = current[0]
            index = len(starts)
            layer_append(layer)
            parent_append(parent)
            start_append(0.0)
            end_append(0.0)
            current[0] = index
            calls[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = t0
                current[0] = parent
            if total is not None:
                total[0] += size(args, result)
            return result

        return traced

    def count(self, key: str) -> int:
        return self.calls.get(key, [0])[0]

    def size(self, key: str) -> int:
        return self.sizes.get(key, [0])[0]

    def in_layer(self, layer: int) -> bool:
        """True while a span of ``layer`` is open."""
        index = self._current[0]
        return index >= 0 and self.layer[index] == layer

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time per layer id: each span's duration, minus the
        durations of its direct children."""
        totals = [0.0] * len(LAYERS)
        layer, parent, start, end = self.layer, self.parent, self.start, \
            self.end
        for index in range(len(start)):
            duration = end[index] - start[index]
            totals[layer[index]] += duration
            up = parent[index]
            if up >= 0:
                totals[layer[up]] -= duration
        return totals

    def root_time(self) -> float:
        """Wall time covered by top-level spans."""
        parent, start, end = self.parent, self.start, self.end
        return sum(end[i] - start[i] for i in range(len(start))
                   if parent[i] < 0)

    def __len__(self) -> int:
        return len(self.start)


class TracedReplayBuffer:
    """Delegating stand-in for a ``__slots__`` ``ReplayBuffer``."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self.push = recorder.wrap(inner.push, REPLAY_PUSH, "replay.push",
                                  size=lambda args, _r: len(args[0]))

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedReplayUnit:
    """Delegating stand-in for a ``__slots__`` ``ReplayUnit``."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self.checkpoint = recorder.wrap(inner.checkpoint, REPLAY_CHECKPOINT,
                                        "replay.checkpoint")
        self.replay = recorder.wrap(inner.replay, REPLAY, "replay.replay")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _patch(obj, names: Iterable[str], recorder: SpanRecorder, layer: int,
           prefix: str) -> None:
    for name in names:
        setattr(obj, name, recorder.wrap(getattr(obj, name), layer,
                                         f"{prefix}.{name}"))


def instrument(cs, recorder: SpanRecorder) -> None:
    """Wrap the public calls into every layer of ``cs`` (before ``run``)."""
    rec = recorder
    cs.dut.cycle = rec.wrap(cs.dut.cycle, DUT_CYCLE, "dut.system_cycle")
    for core in cs.dut.cores:
        core.cycle = rec.wrap(core.cycle, DUT_CYCLE, "dut.core_cycle")
        core.hart.step = rec.wrap(core.hart.step, ISA, "isa.step")
        if core.jit is not None:
            core.jit.run_block = rec.wrap(
                core.jit.run_block, ISA, "isa.jit_block",
                size=lambda _a, result: _length(result))
        for name in ("icache", "dcache", "l2cache"):
            cache = getattr(core, name)
            cache.access = rec.wrap(cache.access, DUT_UARCH, "uarch.cache")
        core.tlbs.access = rec.wrap(core.tlbs.access, DUT_UARCH, "uarch.tlb")
        core.sbuffer.store = rec.wrap(core.sbuffer.store, DUT_UARCH,
                                      "uarch.sbuffer")
        # The monitor's calls are wrapped on its class (trace_classes);
        # an override a fault already installed on the instance is
        # wrapped here, since it calls the unwrapped class method.
        _patch(core.monitor, [name for name in MONITOR_CALLS
                              if name in vars(core.monitor)],
               rec, DUT_MONITOR, "monitor")
    fuser = cs.fuser
    if fuser is not None:
        # The fuser's window flush also runs inside ``on_cycle``; items
        # out are counted on the calls the framework makes.
        fuser.on_cycle = _outside(
            rec.wrap(fuser.on_cycle, FUSION, "fusion.on_cycle",
                     size=lambda args, _r: len(args[0])),
            rec, FUSION, "fusion.items_out", _items)
        fuser.flush = _outside(rec.wrap(fuser.flush, FUSION, "fusion.flush"),
                               rec, FUSION, "fusion.items_out", _items)
    for name in PACKER_CALLS:
        size = (lambda _a, result: _length(result)) \
            if name in ("pack_cycle", "flush", "end_append") else None
        setattr(cs.packer, name, rec.wrap(getattr(cs.packer, name), PACK,
                                          f"pack.{name}", size=size))
    cs.unpacker.unpack = rec.wrap(cs.unpacker.unpack, UNPACK, "unpack",
                                  size=lambda _a, result: len(result))
    cs.channel.send_all = rec.wrap(cs.channel.send_all, SEND, "channel.send")
    cs.channel.receive = rec.wrap(
        cs.channel.receive, RECV, "channel.recv",
        size=lambda _a, result: result is None)
    for checker in cs.checkers:
        checker.process_item = rec.wrap(checker.process_item, CHECKER,
                                        "checker.process_item")
        checker.process = _outside(
            rec.wrap(checker.process, CHECKER, "checker.process"),
            rec, CHECKER, "checker.process_top", _one)
    cs.completer.complete = rec.wrap(cs.completer.complete, CHECKER,
                                     "checker.complete")
    for ref in cs.refs:
        _patch(ref, REF_CALLS, rec, REF, "ref")
    for core_id, unit in enumerate(cs.replay_units):
        buffer = TracedReplayBuffer(cs.replay_buffers[core_id], rec)
        unit.buffer = buffer
        cs.replay_buffers[core_id] = buffer
        cs.replay_units[core_id] = TracedReplayUnit(unit, rec)


def _items(_args, result) -> int:
    return _length(result)


def _one(_args, _result) -> int:
    return 1


def _outside(fn: Callable, recorder: SpanRecorder, layer: int, key: str,
             size: Callable) -> Callable:
    """Add ``size(args, result)`` to ``sizes[key]`` for the calls of
    ``fn`` made from outside ``layer`` (a layer calling itself is not
    handing work across its boundary)."""
    total = recorder.sizes.setdefault(key, [0])

    def counted(*args, **kwargs):
        outside = not recorder.in_layer(layer)
        result = fn(*args, **kwargs)
        if outside:
            total[0] += size(args, result)
        return result

    return counted


@contextmanager
def trace_classes(recorder: SpanRecorder):
    """Wrap the capture engine's bundle calls and the monitor's calls on
    their classes for one traced run, and restore them afterwards.

    The engine is constructed inside ``run()``, so it cannot be patched
    beforehand.  The monitor must not be patched on the instance: an
    instance-level ``end_of_cycle_state`` marks an armed fault and would
    move the run off the straight-to-wire capture path.
    """
    from repro.comm.fastcapture import FastCaptureEngine
    from repro.dut.monitor import Monitor

    saved = [(cls, name, cls.__dict__[name], layer, f"{prefix}.{name}")
             for cls, names, layer, prefix in (
                 (FastCaptureEngine, CAPTURE_CALLS, CAPTURE, "capture"),
                 (Monitor, MONITOR_CALLS, DUT_MONITOR, "monitor"))
             for name in names]
    try:
        for cls, name, fn, layer, key in saved:
            setattr(cls, name, recorder.wrap(fn, layer, key))
        yield
    finally:
        for cls, name, fn, _layer, _key in saved:
            setattr(cls, name, fn)


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
class LedgerError(AssertionError):
    """The per-layer self times do not add up to the traced wall time."""


def ledger(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Self time per layer plus ``framework.loop_s``, checked to close.

    The ledger closes when the layer self times sum to the time the
    top-level spans cover, and that time fits inside the run's wall time;
    ``framework.loop_s`` is the remainder.
    """
    selfs = recorder.self_times()
    covered = recorder.root_time()
    spent = sum(selfs)
    tolerance = 1e-9 * max(1, len(recorder)) + 1e-9
    if abs(spent - covered) > tolerance:
        raise LedgerError(f"{recorder.run_id}: layer self times sum to "
                          f"{spent!r} s but top-level spans cover "
                          f"{covered!r} s")
    if covered > wall_s + tolerance:
        raise LedgerError(f"{recorder.run_id}: spans cover {covered!r} s of "
                          f"a {wall_s!r} s run")
    for name, value in zip(LAYERS, selfs):
        if value < -tolerance:
            raise LedgerError(f"{recorder.run_id}: negative self time "
                              f"{value!r} s for {name}")
    out = dict(zip(LAYERS, selfs))
    out["framework.loop_s"] = wall_s - covered
    return out


def write_spans(path, recorders: List[SpanRecorder]) -> None:
    """Write the runs' spans: one JSON header line indexing the runs, then
    each run's layer, parent, start and end arrays back to back."""
    runs = [{"run_id": rec.run_id, "spans": len(rec)} for rec in recorders]
    header = {"layers": list(LAYERS), "columns": [
        ["layer", "B"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        "runs": runs}
    with open(path, "wb") as out:
        out.write(json.dumps(header).encode() + b"\n")
        for rec in recorders:
            for column in (rec.layer, rec.parent, rec.start, rec.end):
                column.tofile(out)


def read_spans(path) -> List[SpanRecorder]:
    """Inverse of :func:`write_spans`."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        recorders = []
        for run in header["runs"]:
            rec = SpanRecorder(run["run_id"])
            for column in (rec.layer, rec.parent, rec.start, rec.end):
                column.fromfile(src, run["spans"])
            recorders.append(rec)
    return recorders
