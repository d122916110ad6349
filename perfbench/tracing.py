"""Span recorder and import-site wrappers for the traced run.

Only ``run.py --trace 1`` imports this module.  It wraps public
functions of each layer *from outside*: a function is replaced in the
namespace of the module that calls it (``repro.service.core.select_delta``
rather than ``repro.simulation.delta.select_delta``), a method on its
class, and the SPICE stand-in on the instance the benchmark passes in.
No file of the program changes, and :meth:`Patcher.restore` puts every
original back.

Spans hold a name, start, end, the span that was open on the same thread
when they began (their parent) and the ids of the workload, round and
phase they ran in.  They stay in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "thread", "ids")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], thread: int, ids: dict) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.ids = ids

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, **self.ids}


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and their overlaps
    merged, so the result is never negative and never double-counts.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ()))
        covered = 0.0
        cursor = span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.seconds - covered
    return result


class SpanRecorder:
    """Thread-safe in-memory span and counter store."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Context ids stamped on every span begun from now on.
        self.ids: dict = {}
        self.main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **ids) -> Span:
        stack = self._stack()
        span = Span(next(self._next_id), name, time.perf_counter(),
                    stack[-1].span_id if stack else None,
                    threading.get_ident(), {**self.ids, **ids})
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **ids):
        span = self.begin(name, **ids)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- queries --------------------------------------------------------------

    def named(self, name: str, main_thread: Optional[bool] = None
              ) -> List[Span]:
        """Spans called ``name``; optionally only on/off the main thread."""
        with self._lock:
            spans = [s for s in self.spans if s.name == name]
        if main_thread is None:
            return spans
        return [s for s in spans
                if (s.thread == self.main_thread) == main_thread]

    def seconds(self, name: str, main_thread: Optional[bool] = None) -> float:
        return float(sum(s.seconds for s in self.named(name, main_thread)))

    def self_seconds(self, name: str) -> float:
        with self._lock:
            spans = list(self.spans)
        own = self_times(spans)
        return float(sum(own[s.span_id] for s in spans if s.name == name))

    def write(self, path: str) -> None:
        """Write every span as one JSON line (done once, at the end)."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as stream:
            for span in spans:
                stream.write(json.dumps(span.to_dict()) + "\n")


# -- patching --------------------------------------------------------------------


class Patcher:
    """Replaces attributes and restores exactly what was there before."""

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr,
                            vars(owner).get(attr, self._MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def timed(recorder: SpanRecorder, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``after(args, result)`` records counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


_STAT_COUNTERS = ("gate_evaluations", "kernel_calls", "kernel_iterations",
                  "retries", "batches", "lanes_skipped", "lanes_spliced")


def _after_engine_run(recorder: SpanRecorder):
    def after(args, result) -> None:
        stats = args[0].last_stats
        if stats is None:
            return
        for field in _STAT_COUNTERS:
            recorder.count(f"simulation.{field}", getattr(stats, field))
        for phase, seconds in stats.phase_seconds().items():
            recorder.count(f"simulation.{phase}_s", seconds)
    return after


def _after_select_delta(recorder: SpanRecorder):
    def after(args, result) -> None:
        if result is not None:
            recorder.count("delta.selected")
    return after


def _after_fingerprint(recorder: SpanRecorder):
    def after(args, result) -> None:
        recorder.count("runtime.fingerprint_calls")
    return after


def _after_spice(recorder: SpanRecorder):
    def after(args, result) -> None:
        recorder.count("electrical.spice_evals", int(np.size(result)))
    return after


def install(recorder: SpanRecorder, call_sites: Iterable[object] = (),
            spice_instances: Iterable[object] = ()) -> Patcher:
    """Wrap every layer's public calls; returns the patcher to restore.

    ``call_sites`` are the benchmark's own modules that call layer
    functions directly (their module-level names are wrapped too);
    ``spice_instances`` are the :class:`AnalyticalSpice` objects the
    benchmark handed to the characterization flow.
    """
    import repro.avfs.loop.runner as loop_runner
    import repro.core.characterization as characterization
    import repro.service.core as service_core
    from repro.avfs.controller import AvfsController
    from repro.service.core import SimulationService
    from repro.simulation.gpu import GpuWaveSim
    from repro.timing.sta import StaticTimingAnalysis

    patcher = Patcher()

    def wrap(owner, attr, name, after=None) -> None:
        patcher.replace(owner, attr,
                        timed(recorder, name, getattr(owner, attr), after))

    wrap(GpuWaveSim, "run", "simulation.run", _after_engine_run(recorder))
    wrap(SimulationService, "submit", "service.submit")
    for attr in ("job_fingerprint", "compatibility_fingerprint"):
        wrap(service_core, attr, "runtime.fingerprint",
             _after_fingerprint(recorder))
    for module in (service_core, loop_runner):
        wrap(module, "select_delta", "delta.select",
             _after_select_delta(recorder))
    wrap(characterization, "characterize_cell", "core.cell")
    wrap(characterization, "fit_polynomial", "core.fit")
    wrap(characterization, "select_half_order", "core.order_select")
    wrap(StaticTimingAnalysis, "longest_path_delay", "timing.sta")
    wrap(loop_runner.ClosedLoopRunner, "run", "avfs.loop")
    wrap(AvfsController, "decide", "avfs.decide")
    for module in (loop_runner, *call_sites):
        if hasattr(module, "latest_arrivals"):
            wrap(module, "latest_arrivals", "analysis.arrivals")
    for attr in ("switching_activity", "dynamic_power"):
        wrap(loop_runner, attr, "analysis.energy")
    for spice in spice_instances:
        wrap(spice, "delays_at", "electrical.spice", _after_spice(recorder))
    return patcher


def layer_metrics(recorder: SpanRecorder, rounds: int) -> Dict[str, float]:
    """Per-round layer figures from the recorded spans and counters.

    Seconds and counts are divided by the number of traced rounds, so a
    faster program that fits more rounds into the run reads the same
    per unit of work; ratios are taken over the totals.
    """
    per = 1.0 / max(rounds, 1)
    c = recorder.counters
    run_s = recorder.seconds("simulation.run")
    phases = c["simulation.delay_s"] + c["simulation.merge_s"] \
        + c["simulation.pack_s"]
    evaluated = c["simulation.gate_evaluations"]
    skipped = c["simulation.lanes_skipped"]
    spliced = c["simulation.lanes_spliced"]
    lanes = evaluated + skipped + spliced
    submits = [s.seconds for s in recorder.named("service.submit")]
    out = {
        "simulation.run_s": run_s * per,
        "simulation.runs": len(recorder.named("simulation.run")) * per,
        "simulation.delay_s": c["simulation.delay_s"] * per,
        "simulation.merge_s": c["simulation.merge_s"] * per,
        "simulation.pack_s": c["simulation.pack_s"] * per,
        "simulation.other_s": (run_s - phases) * per,
        "simulation.ns_per_evaluation": (run_s / evaluated * 1e9
                                         if evaluated else 0.0),
        "simulation.active_fraction": (evaluated / (evaluated + skipped)
                                       if evaluated + skipped else 0.0),
        "delta.select_s": recorder.seconds("delta.select") * per,
        "delta.selected": c["delta.selected"] * per,
        "delta.lanes_spliced": spliced * per,
        "delta.splice_fraction": spliced / lanes if lanes else 0.0,
        "service.submit_s": sum(submits) * per,
        "service.submit_p50_ms": (float(np.median(submits)) * 1e3
                                  if submits else 0.0),
        "service.engine_s": recorder.seconds("simulation.run",
                                             main_thread=False) * per,
        "runtime.fingerprint_s": recorder.seconds("runtime.fingerprint") * per,
        "runtime.fingerprint_calls": c["runtime.fingerprint_calls"] * per,
        "electrical.spice_s": recorder.seconds("electrical.spice") * per,
        "electrical.spice_evals": c["electrical.spice_evals"] * per,
        "core.cell_s": recorder.seconds("core.cell") * per,
        "core.fit_s": recorder.seconds("core.fit") * per,
        "core.order_select_s": recorder.seconds("core.order_select") * per,
        "core.charz_other_s": recorder.self_seconds("core.cell") * per,
        "analysis.arrivals_s": recorder.seconds("analysis.arrivals") * per,
        "analysis.energy_s": recorder.seconds("analysis.energy") * per,
        "timing.sta_s": recorder.seconds("timing.sta") * per,
        "avfs.loop_s": recorder.seconds("avfs.loop") * per,
        "avfs.loop_self_s": recorder.self_seconds("avfs.loop") * per,
        "avfs.decide_s": recorder.seconds("avfs.decide") * per,
    }
    for field in _STAT_COUNTERS:
        name = f"simulation.{field}"
        if field != "lanes_spliced":
            out[name] = c[name] * per
    return out
