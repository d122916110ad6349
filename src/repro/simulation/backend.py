"""Pluggable compute backends for the hot simulation kernels.

The engine's inner loop — the waveform-merge kernel with the online
delay calculation (polynomial Horner evaluation, Sec. IV-A) folded in —
exists in two implementations behind one interface:

* ``numpy`` — the vectorized lockstep port (always available, the floor
  on every platform).  All lanes of a level advance through their event
  streams together; a single long-waveform lane keeps every live lane
  iterating (mitigated, but not removed, by live-set compaction).
* ``cext``  — per-lane scalar loops in portable C99, compiled on first
  use with the system C compiler (OpenMP-parallel) and loaded through
  :mod:`ctypes`: each lane runs its own event loop to exhaustion, the
  shape GATSPI demonstrates for gate-level SIMT throughput.
* ``auto``  — cext when it builds, else numpy.  Never an import error.

Selection order: explicit :attr:`SimulationConfig.backend` (e.g. from
the ``--backend`` CLI flag), else the ``REPRO_BACKEND`` environment
variable, else ``auto``.

Equivalence guarantee: both backends implement the exact per-lane
algorithm of :func:`~repro.simulation.kernels.waveform_merge_kernel`
with identical IEEE-754 operation order, so results are **bit-identical**
across backends (asserted in ``tests/simulation/test_backend.py``).

Adding a backend: subclass :class:`ComputeBackend`, implement
``merge_kernel`` (lane-oriented API, used by micro-benchmarks) and
``run_level`` (one whole level against the waveform arena, dense or
lane-compacted; the engine's only dispatch entry), optionally override
``run_levels`` with a native whole-batch loop, then add a loader branch
to :func:`_load` and the name to :data:`BACKEND_CHOICES` and the two
preference orders.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.simulation.kernels import MergeResult, waveform_merge_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.compiled import CircuitPlans, LevelPlan

__all__ = [
    "BACKEND_CHOICES",
    "AUTO_ORDER",
    "DEMOTION_ORDER",
    "ComputeBackend",
    "GroupResult",
    "LevelsResult",
    "NumpyBackend",
    "available_backends",
    "backend_status",
    "demote_backend",
    "resolve_backend",
]

#: Valid values for ``SimulationConfig.backend`` / ``REPRO_BACKEND``.
BACKEND_CHOICES = ("auto", "numpy", "cext")

#: Preference order tried by ``auto``.
AUTO_ORDER = ("cext", "numpy")

#: Environment variable consulted when no explicit backend is configured.
ENV_VAR = "REPRO_BACKEND"


@dataclass
class GroupResult:
    """Outcome of one level evaluation (:meth:`ComputeBackend.run_level`)."""

    lanes: int            # gate instances evaluated (gates × slots)
    iterations: int       # kernel loop trips (diagnostics; see note below)
    overflow_lanes: int   # lanes that exceeded the waveform capacity
    #: Seconds spent materializing per-voltage delay arrays inside the
    #: call (numpy polynomial mode only; cext evaluates the Horner
    #: kernel inside the merge loop, so its delay work is inseparable
    #: from — and reported as — merge time).
    delay_seconds: float = 0.0

    # Note: the numpy backend reports global lockstep iterations, cext
    # reports the summed per-lane event count — both measure kernel
    # work, on different axes.


@dataclass
class LevelsResult:
    """Outcome of a whole-batch :meth:`ComputeBackend.run_levels` call.

    Accounting matches the equivalent sequence of per-level
    :meth:`ComputeBackend.run_level` calls exactly: ``kernel_calls``
    counts non-empty levels dispatched (the overflowing level
    included), ``lanes`` sums ``gates × slots`` over those levels.
    """

    lanes: int
    iterations: int
    overflow_lanes: int
    kernel_calls: int
    delay_seconds: float = 0.0


class ComputeBackend:
    """Interface shared by all kernel implementations."""

    name = "?"

    def merge_kernel(
        self,
        input_times: np.ndarray,
        input_initial: np.ndarray,
        delays: np.ndarray,
        truth_tables: np.ndarray,
        out_capacity: int,
        inertial: bool = True,
    ) -> MergeResult:
        """Lane-oriented merge: same contract as
        :func:`~repro.simulation.kernels.waveform_merge_kernel`."""
        raise NotImplementedError

    def run_level(
        self,
        plan: "LevelPlan",
        times_all: np.ndarray,
        initial_all: np.ndarray,
        slot_to_v: np.ndarray,
        factors: Optional[np.ndarray],
        capacity: int,
        inertial: bool,
        kernel_table=None,
        nv: Optional[np.ndarray] = None,
        nc: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
        lane_gates: Optional[np.ndarray] = None,
        lane_slots: Optional[np.ndarray] = None,
        delays: Optional[np.ndarray] = None,
    ) -> GroupResult:
        """Evaluate one whole level (all arity groups) in one call.

        ``plan`` is the level's compile-time
        :class:`~repro.simulation.compiled.LevelPlan`: arity-sorted
        compacted arrays, so the backend loops the arity runs natively.
        ``times_all``/``initial_all`` are the ``(nets, slots, capacity)``
        toggle-time arena and the ``(nets, slots)`` initial values;
        inputs are read from and outputs written to them in place (on
        overflow the level's output rows are unspecified — the caller
        discards the arena and retries at a larger capacity).
        ``slot_to_v`` maps each slot to its distinct-voltage index.
        Delay handling folds into the same entry point:

        * table mode (``kernel_table is None``) reads a per-gate delay
          table: ``delays`` — ``(g, P, 2, V)`` per distinct voltage,
          e.g. filled from a LUT or analytical model — or, when it is
          ``None``, ``plan.nominal`` unchanged (static mode, ``V = 1``),
        * polynomial mode receives the
          :class:`~repro.core.delay_kernel.DelayKernelTable` plus the
          *pre-normalized* predictors — ``nv`` = ``φ_V`` per distinct
          voltage, ``nc`` = ``φ_C`` per plan gate (cached on the plan) —
          and evaluates the 2-D Horner kernel per (gate, voltage); cext
          does so inside the merge loop, never materializing a per-lane
          delay array,
        * Monte-Carlo ``factors`` (level-local ``(g, S)``, plan gate
          order) scale each delay after the table read.

        ``lane_gates`` / ``lane_slots`` (plan-local, ``lane_gates``
        non-decreasing) select the activity-compacted sparse path: only
        those lanes run, every other output row is left untouched.
        ``delay_cache`` memoizes materialized per-voltage arrays across
        overflow retries (numpy path only).
        """
        raise NotImplementedError

    def run_levels(
        self,
        plans: "CircuitPlans",
        times_all: np.ndarray,
        initial_all: np.ndarray,
        slot_to_v: np.ndarray,
        factors: Optional[np.ndarray],
        capacity: int,
        inertial: bool,
        kernel_table=None,
        nv: Optional[np.ndarray] = None,
        delay_cache: Optional[Dict] = None,
        delays: Optional[np.ndarray] = None,
    ) -> LevelsResult:
        """Evaluate *every* level of the circuit in one backend call.

        Dense (non-activity-tracked) counterpart of level-by-level
        :meth:`run_level` dispatch: levels run strictly in order, each
        against the arena the preceding levels finalized.  ``factors``
        is the full ``(num_gates, S)`` Monte-Carlo array (circuit gate
        order) and ``delays`` a table in concatenated plan-row order
        (``plans.concat()``); backends slice or gather them themselves.
        ``nc`` is not a parameter — the per-level ``φ_C`` memos live on
        ``plans``.  Stops at the first level with overflowing lanes so
        the caller can retry at doubled capacity.

        The base implementation loops :meth:`run_level`; cext overrides
        it with a single native whole-batch entry, paying its ctypes
        marshalling once.  Results are bit-identical either way.
        """
        space = kernel_table.space if kernel_table is not None else None
        nc_levels = (plans.normalized_loads(space)
                     if kernel_table is not None else None)
        offsets = plans.concat().level_offsets
        lanes = 0
        iterations = 0
        kernel_calls = 0
        delay_seconds = 0.0
        num_slots = int(slot_to_v.size)
        for index, plan in enumerate(plans.levels):
            if plan.num_gates == 0:
                continue
            group_factors = (factors[plan.gate_indices]
                             if factors is not None else None)
            result = self.run_level(
                plan, times_all, initial_all, slot_to_v, group_factors,
                capacity, inertial, kernel_table=kernel_table, nv=nv,
                nc=nc_levels[index] if nc_levels is not None else None,
                delay_cache=delay_cache,
                delays=(delays[offsets[index]:offsets[index + 1]]
                        if delays is not None else None),
            )
            lanes += plan.num_gates * num_slots
            iterations += result.iterations
            kernel_calls += 1
            delay_seconds += result.delay_seconds
            if result.overflow_lanes:
                return LevelsResult(lanes=lanes, iterations=iterations,
                                    overflow_lanes=result.overflow_lanes,
                                    kernel_calls=kernel_calls,
                                    delay_seconds=delay_seconds)
        return LevelsResult(lanes=lanes, iterations=iterations,
                            overflow_lanes=0, kernel_calls=kernel_calls,
                            delay_seconds=delay_seconds)


def _merge_dense(times_all, initial_all, in_ids, out_ids, per_voltage,
                 slot_to_v, factors, truth_tables, capacity, inertial):
    """Gather a whole ``gates × slots`` plane, merge, scatter back."""
    group_size, arity = in_ids.shape
    num_slots = slot_to_v.size
    lanes = group_size * num_slots

    # Gather inputs: (g, k, S, C) -> (k, g*S, C).
    input_times = times_all[in_ids].transpose(1, 0, 2, 3).reshape(
        arity, lanes, capacity
    )
    input_initial = initial_all[in_ids].transpose(1, 0, 2).reshape(
        arity, lanes
    )

    delays = per_voltage[..., slot_to_v]                     # (g, k, 2, S)
    if factors is not None:
        delays = delays * factors[:, None, None, :]
    delays = np.ascontiguousarray(delays.transpose(1, 2, 0, 3)).reshape(
        arity, 2, lanes
    )
    lane_tables = np.repeat(truth_tables, num_slots)

    merged = waveform_merge_kernel(input_times, input_initial, delays,
                                   lane_tables, capacity, inertial=inertial)
    overflow_lanes = int(merged.overflow.sum())
    if overflow_lanes == 0:
        times_all[out_ids] = merged.times.reshape(group_size, num_slots,
                                                  capacity)
        initial_all[out_ids] = merged.initial.reshape(group_size, num_slots)
    return merged.iterations, overflow_lanes


def _merge_sparse(times_all, initial_all, in_ids, out_ids, per_voltage,
                  slot_to_v, factors, truth_tables, capacity, inertial,
                  lane_gates, lane_slots):
    """Gather only the listed ``(gate, slot)`` lanes, merge, scatter back."""
    # Gather only the active lanes: (lanes, k, C) -> (k, lanes, C).
    lane_nets = in_ids[lane_gates]                           # (lanes, k)
    input_times = np.ascontiguousarray(
        times_all[lane_nets, lane_slots[:, None]].transpose(1, 0, 2))
    input_initial = np.ascontiguousarray(
        initial_all[lane_nets, lane_slots[:, None]].T)       # (k, lanes)

    delays = per_voltage[lane_gates, :, :, slot_to_v[lane_slots]]
    if factors is not None:                                  # (lanes, k, 2)
        delays = delays * factors[lane_gates, lane_slots][:, None, None]
    delays = np.ascontiguousarray(delays.transpose(1, 2, 0))  # (k, 2, lanes)
    lane_tables = truth_tables[lane_gates]

    merged = waveform_merge_kernel(input_times, input_initial, delays,
                                   lane_tables, capacity, inertial=inertial)
    overflow_lanes = int(merged.overflow.sum())
    if overflow_lanes == 0:
        times_all[out_ids[lane_gates], lane_slots] = merged.times
        initial_all[out_ids[lane_gates], lane_slots] = merged.initial
    return merged.iterations, overflow_lanes


class NumpyBackend(ComputeBackend):
    """The vectorized lockstep reference implementation."""

    name = "numpy"

    def merge_kernel(self, input_times, input_initial, delays, truth_tables,
                     out_capacity, inertial=True):
        return waveform_merge_kernel(input_times, input_initial, delays,
                                     truth_tables, out_capacity,
                                     inertial=inertial)

    def run_level(self, plan, times_all, initial_all, slot_to_v, factors,
                  capacity, inertial, kernel_table=None, nv=None, nc=None,
                  delay_cache=None, lane_gates=None, lane_slots=None,
                  delays=None):
        delay_seconds = 0.0
        if kernel_table is None:
            per_voltage = (delays if delays is not None
                           else plan.nominal[..., None])  # (g, P, 2, V)
        else:
            key = ("polynomial", plan.level, nv.tobytes())
            per_voltage = (delay_cache.get(key)
                           if delay_cache is not None else None)
            if per_voltage is None:
                start = _time.perf_counter()
                per_voltage = kernel_table.delays_from_normalized(
                    plan.type_ids, nv, nc, plan.nominal)
                delay_seconds = _time.perf_counter() - start
                if delay_cache is not None:
                    delay_cache[key] = per_voltage
        # One padded dispatch for the whole level: one max_pins-wide
        # group with don't-care-padded tables and spare pins on the
        # constant-0 dummy net.  Splitting into per-arity calls would
        # multiply the lockstep kernel's fixed per-call cost; per lane
        # the padded op sequence is bit-identical anyway.
        if lane_gates is not None:
            lanes = int(lane_gates.size)
            iterations, overflow_lanes = _merge_sparse(
                times_all, initial_all, plan.in_ids, plan.out_ids,
                per_voltage, slot_to_v, factors, plan.padded_tables,
                capacity, inertial, lane_gates, lane_slots)
        else:
            lanes = plan.num_gates * int(slot_to_v.size)
            iterations, overflow_lanes = _merge_dense(
                times_all, initial_all, plan.in_ids, plan.out_ids,
                per_voltage, slot_to_v, factors, plan.padded_tables,
                capacity, inertial)
        return GroupResult(lanes=lanes, iterations=iterations,
                           overflow_lanes=overflow_lanes,
                           delay_seconds=delay_seconds)


class CextBackend(ComputeBackend):
    """ctypes-loaded C kernels (requires a working C compiler)."""

    name = "cext"

    def __init__(self, kernels) -> None:
        self._kernels = kernels

    def merge_kernel(self, input_times, input_initial, delays, truth_tables,
                     out_capacity, inertial=True):
        k, num_lanes, _ = input_times.shape
        if input_initial.shape != (k, num_lanes):
            raise ValueError("input_initial shape mismatch")
        if delays.shape != (k, 2, num_lanes):
            raise ValueError("delays shape mismatch")
        initial, times, counts, overflow, iterations = self._kernels.merge_lanes(
            input_times, input_initial, delays, truth_tables, out_capacity,
            inertial,
        )
        return MergeResult(initial=initial, times=times, counts=counts,
                           overflow=overflow, iterations=int(iterations))

    @staticmethod
    def _coefficients(kernel_table, pins: int):
        if kernel_table is None:
            return None
        if pins > kernel_table.max_pins:
            raise SimulationError(
                f"gates have {pins} pins but the kernel table holds "
                f"{kernel_table.max_pins}"
            )
        return kernel_table.coefficients

    def run_level(self, plan, times_all, initial_all, slot_to_v, factors,
                  capacity, inertial, kernel_table=None, nv=None, nc=None,
                  delay_cache=None, lane_gates=None, lane_slots=None,
                  delays=None):
        coeffs = self._coefficients(kernel_table, plan.nominal.shape[1])
        overflow_lanes, iterations = self._kernels.run_level(
            times_all, initial_all, plan.in_ids, plan.out_ids, plan.tables,
            plan.arities, plan.type_ids,
            delays if delays is not None else plan.nominal,
            coeffs, nv, nc, slot_to_v, factors, capacity, inertial,
            lane_gates, lane_slots,
        )
        lanes = (int(lane_gates.size) if lane_gates is not None
                 else plan.num_gates * int(slot_to_v.size))
        return GroupResult(lanes=lanes, iterations=int(iterations),
                           overflow_lanes=int(overflow_lanes))

    def run_levels(self, plans, times_all, initial_all, slot_to_v, factors,
                   capacity, inertial, kernel_table=None, nv=None,
                   delay_cache=None, delays=None):
        # One ctypes crossing for the whole batch: the C entry loops the
        # levels over the concatenated plan arrays, so the per-call
        # marshalling cost (~20 array arguments) is paid once instead of
        # once per level.
        cat = plans.concat()
        if cat.out_ids.size == 0:
            return LevelsResult(lanes=0, iterations=0, overflow_lanes=0,
                                kernel_calls=0)
        coeffs = self._coefficients(kernel_table, cat.nominal.shape[1])
        nc = (plans.concat_normalized_loads(kernel_table.space)
              if kernel_table is not None else None)
        gathered = (np.ascontiguousarray(factors[cat.gate_indices])
                    if factors is not None else None)
        overflow_lanes, iterations, levels_done, lanes = \
            self._kernels.run_levels(
                times_all, initial_all, cat,
                delays if delays is not None else cat.nominal,
                coeffs, nv, nc, slot_to_v, gathered, capacity, inertial,
            )
        return LevelsResult(lanes=int(lanes), iterations=int(iterations),
                            overflow_lanes=int(overflow_lanes),
                            kernel_calls=int(levels_done))


# -- registry ----------------------------------------------------------------------

_CACHE: Dict[str, ComputeBackend] = {}
_FAILURES: Dict[str, str] = {}


def _clear_caches() -> None:
    """Forget loaded backends and failure reasons (for tests)."""
    _CACHE.clear()
    _FAILURES.clear()


def _load(name: str) -> Optional[ComputeBackend]:
    """Load a concrete backend, caching both successes and failures."""
    if name in _CACHE:
        return _CACHE[name]
    if name in _FAILURES:
        return None
    try:
        from repro import faults
        faults.trip("backend.load")
        if name == "numpy":
            backend: ComputeBackend = NumpyBackend()
        elif name == "cext":
            from repro.simulation import kernels_cext
            backend = CextBackend(kernels_cext.load())
        else:  # pragma: no cover - guarded by resolve_backend
            raise SimulationError(f"unknown backend {name!r}")
    except Exception as error:  # gated dependency missing / build failure
        _FAILURES[name] = f"{type(error).__name__}: {error}"
        return None
    _CACHE[name] = backend
    return backend


def resolve_backend(name: Optional[str] = None) -> ComputeBackend:
    """Resolve a backend by name, env var or ``auto`` preference.

    ``auto`` silently falls back along :data:`AUTO_ORDER` and can never
    fail (numpy always loads); a concrete name raises
    :class:`~repro.errors.SimulationError` when its dependency is
    missing.
    """
    requested = (name or os.environ.get(ENV_VAR) or "auto").strip().lower()
    if requested not in BACKEND_CHOICES:
        raise SimulationError(
            f"unknown compute backend {requested!r} "
            f"(choose from {', '.join(BACKEND_CHOICES)})"
        )
    if requested == "auto":
        for candidate in AUTO_ORDER:
            backend = _load(candidate)
            if backend is not None:
                return backend
        raise SimulationError(  # pragma: no cover - numpy always loads
            "no compute backend available"
        )
    backend = _load(requested)
    if backend is None:
        raise SimulationError(
            f"compute backend {requested!r} is unavailable "
            f"({_FAILURES[requested]}); use backend='auto' for automatic "
            f"fallback"
        )
    return backend


def available_backends() -> List[str]:
    """Names of the concrete backends that load on this machine."""
    return [name for name in BACKEND_CHOICES[1:] if _load(name) is not None]


def backend_status() -> Dict[str, str]:
    """Per-backend availability ("ok" or the load-failure reason)."""
    status = {}
    for name in BACKEND_CHOICES[1:]:
        status[name] = "ok" if _load(name) is not None else _FAILURES[name]
    return status


#: Demotion ladder walked when a native kernel faults repeatedly: from
#: the native backend down to the always-available numpy port.
DEMOTION_ORDER = ("cext", "numpy")


def demote_backend(name: str) -> Optional[ComputeBackend]:
    """Next *loadable* backend below ``name`` on the demotion ladder.

    Skips rungs that do not load on this machine.  Returns ``None`` at
    the numpy floor — there is nothing safer to fall back to.
    """
    try:
        position = DEMOTION_ORDER.index(name)
    except ValueError:  # pragma: no cover - unknown engine name
        return None
    for candidate in DEMOTION_ORDER[position + 1:]:
        backend = _load(candidate)
        if backend is not None:
            return backend
    return None
