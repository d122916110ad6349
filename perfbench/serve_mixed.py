"""Workload ``serve_mixed``: a ``repro serve``-shaped session, in process.

Small jobs (8 pairs at one or two supplies) go through a
``SimulationService`` with the default ``ServiceConfig`` over three
registered suite circuits.  About 20% of the jobs repeat an earlier job
exactly, about 25% change one input bit of an earlier job, and the rest
are fresh; half of the fresh ones are quiet single-input-flip pairs.  So
per-job work carries this workload: intake validation and
fingerprinting, batching, the result cache, delta selection and demux.

Each round has two phases that use those layers in opposite ways.  The
*burst* phase submits its whole stream as fast as admission allows (a
request file piped into ``repro serve``): it batches well but hits the
cache rarely, because identical jobs still in flight are dispatched
twice.  The *sequential* phase is a closed loop of one caller that
submits each job when the previous one has finished: it never batches
but hits the cache, and each job's latency is the service's own path,
timed from submission to completion.  The calling thread is the only
load generator.

A closed loop, not an open one at a fixed rate: on a shared two-core
host an open loop's queueing turned every slow spell of the host into a
latency spike, so the figures did not repeat from run to run, and at a
rate low enough to avoid that it left the host idle for most of a round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.service import SimulationService
from repro.simulation.base import PatternPair
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan

from perfbench.common import (BaseWorkload, Round, cold_kernel_table,
                              derive_seed, suite_circuit)

CIRCUITS = ("s38417", "b22", "b17")
SMOKE_CIRCUITS = ("s38417",)
SUPPLIES = (0.7, 0.8, 0.9)
PAIRS_PER_JOB = 8

REPEAT_SHARE = 0.20
NEAR_SHARE = 0.25
QUIET_SHARE = 0.5  # of the fresh jobs

#: Burst throughput swings by a fifth from one burst to the next (how the
#: submissions happen to fall into batches), so a round runs a long one.
BURST_JOBS = 400
SEQUENTIAL_JOBS = 200

#: Jobs per phase and round compared against a standalone engine run.
CHECK_JOBS = 4


@dataclass(frozen=True)
class JobSpec:
    """One generated job: stimuli, supplies and how it relates to others."""

    circuit: int
    v1: np.ndarray
    v2: np.ndarray
    voltages: Tuple[float, ...]
    kind: str  # "fresh", "quiet", "repeat" or "near"
    source: int = -1  # the earlier job a repeat or near-duplicate copies


def _kinds(rng, count: int) -> List[str]:
    """Exactly the configured mix, in seeded order, starting fresh."""
    repeats = round(REPEAT_SHARE * count)
    near = round(NEAR_SHARE * count)
    quiet = round(QUIET_SHARE * (count - repeats - near))
    kinds = (["repeat"] * repeats + ["near"] * near + ["quiet"] * quiet)
    kinds += ["fresh"] * (count - len(kinds))
    kinds = [str(kind) for kind in rng.permutation(kinds)]
    first = min(i for i, kind in enumerate(kinds)
                if kind in ("fresh", "quiet"))
    kinds[0], kinds[first] = kinds[first], kinds[0]
    return kinds


def _balanced(rng, count: int, choices: int) -> List[int]:
    """``count`` picks spread evenly over ``choices``, in seeded order."""
    return [int(i) for i in rng.permutation(np.arange(count) % choices)]


def job_stream(seed: int, tag: str, count: int,
               widths: Sequence[int]) -> List[JobSpec]:
    """The job stream of one phase, fixed by ``seed`` and ``tag``.

    The mix of kinds, circuits and supply counts is exact for every
    stream; the seed decides their order, the stimuli, the supplies and
    which earlier job a repeat or near-duplicate copies.
    """
    rng = np.random.default_rng(derive_seed(seed, "serve", tag))
    kinds = _kinds(rng, count)
    fresh = sum(kind in ("fresh", "quiet") for kind in kinds)
    circuits = iter(_balanced(rng, fresh, len(widths)))
    supply_counts = iter(_balanced(rng, fresh, 2))
    jobs: List[JobSpec] = []
    for kind in kinds:
        if kind == "repeat":
            source = int(rng.integers(len(jobs)))
            jobs.append(replace(jobs[source], kind=kind, source=source))
        elif kind == "near":
            source = int(rng.integers(len(jobs)))
            base = jobs[source]
            v2 = base.v2.copy()
            v2[rng.integers(v2.shape[0]), rng.integers(v2.shape[1])] ^= 1
            jobs.append(replace(base, v2=v2, kind=kind, source=source))
        else:
            circuit = next(circuits)
            shape = (PAIRS_PER_JOB, widths[circuit])
            v1 = rng.integers(0, 2, shape, dtype=np.uint8)
            if kind == "quiet":
                v2 = v1.copy()
                flips = rng.integers(shape[1], size=shape[0])
                v2[np.arange(shape[0]), flips] ^= 1
            else:
                v2 = rng.integers(0, 2, shape, dtype=np.uint8)
            voltages = tuple(sorted(float(v) for v in rng.choice(
                SUPPLIES, size=next(supply_counts) + 1, replace=False)))
            jobs.append(JobSpec(circuit, v1, v2, voltages, kind))
    return jobs


@dataclass
class _Outcome:
    started: float = 0.0
    done: float = float("nan")
    handle: object = None
    error: Optional[BaseException] = None


class Workload(BaseWorkload):
    name = "serve_mixed"
    unit = {"op": "sequential job, from submission to completion",
            "work": "jobs completed in the burst phase"}

    def __init__(self, seed: int, scratch: str, smoke: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.names = SMOKE_CIRCUITS if smoke else CIRCUITS
        self.burst_jobs = 12 if smoke else BURST_JOBS
        self.sequential_jobs = 8 if smoke else SEQUENTIAL_JOBS
        self.service: Optional[SimulationService] = None
        self.samples: list = []

    # -- set-up ---------------------------------------------------------------

    def setup(self, clock) -> None:
        self.close()
        self.library, _fits, self.table = cold_kernel_table(self.scratch,
                                                            clock)
        self.circuits = [
            suite_circuit(name, self.library, derive_seed(self.seed, name),
                          clock, count=1)
            for name in self.names]
        self.widths = [len(c.circuit.inputs) for c in self.circuits]
        with clock.part("warmup"):
            self.service = SimulationService()
            self.keys = [self.service.register_circuit(
                c.circuit, self.library, compiled=c.compiled)
                for c in self.circuits]
            # One job per circuit and supply, so no plane shape is first
            # seen inside the timed region.
            rng = np.random.default_rng(derive_seed(self.seed, "warmup"))
            handles = []
            for index, width in enumerate(self.widths):
                for voltage in SUPPLIES:
                    v1 = rng.integers(0, 2, (PAIRS_PER_JOB, width),
                                      dtype=np.uint8)
                    v2 = rng.integers(0, 2, v1.shape, dtype=np.uint8)
                    handles.append(self._submit(JobSpec(
                        index, v1, v2, (voltage,), "fresh")))
            for handle in handles:
                handle.result()

    # -- timed phases ---------------------------------------------------------

    def _prepared(self, spec: JobSpec):
        pairs = [PatternPair(a, b) for a, b in zip(spec.v1, spec.v2)]
        return pairs, SlotPlan.cross(len(pairs), spec.voltages)

    def _submit(self, spec: JobSpec, prepared=None):
        pairs, plan = prepared or self._prepared(spec)
        return self.service.submit(self.keys[spec.circuit], pairs, plan=plan,
                                   kernel_table=self.table)

    def _burst(self, specs: List[JobSpec]) -> List[_Outcome]:
        """Submit every job as fast as admission allows, then wait for all."""
        prepared = [self._prepared(spec) for spec in specs]
        outcomes = [_Outcome() for _ in specs]
        for outcome, spec, job in zip(outcomes, specs, prepared):
            outcome.started = time.perf_counter()
            try:
                outcome.handle = self._submit(spec, job)
            except Exception as error:  # rejected at intake: a failure
                outcome.error = error
        for outcome in outcomes:
            if outcome.handle is not None:
                outcome.error = outcome.handle.exception()
                outcome.done = time.perf_counter()
        return outcomes

    def _sequential(self, specs: List[JobSpec]) -> List[_Outcome]:
        """Submit each job once the previous one has finished."""
        prepared = [self._prepared(spec) for spec in specs]
        outcomes = [_Outcome() for _ in specs]
        for outcome, spec, job in zip(outcomes, specs, prepared):
            outcome.started = time.perf_counter()
            try:
                outcome.handle = self._submit(spec, job)
                outcome.error = outcome.handle.exception()
            except Exception as error:  # rejected at intake: a failure
                outcome.error = error
            outcome.done = time.perf_counter()
        return outcomes

    def run_round(self, index: int) -> Round:
        out = Round()
        before = self.service.metrics()
        for phase, count in (("burst", self.burst_jobs),
                             ("sequential", self.sequential_jobs)):
            specs = job_stream(self.seed, f"{phase}-{index}", count,
                               self.widths)
            if self.mark is not None:
                self.mark(phase=phase)
            if phase == "burst":
                outcomes = self._burst(specs)
            else:
                outcomes = self._sequential(specs)
            ok = [o for o in outcomes if o.error is None]
            failed = len(outcomes) - len(ok)
            out.attempted += len(outcomes)
            out.failed += failed
            hits = sum(o.handle.result().cache_hit for o in ok)
            duplicates = sum(
                1 for spec, o in zip(specs, outcomes)
                if spec.kind == "repeat" and o.error is None
                and not o.handle.result().cache_hit)
            out.add(f"serve_{phase}_cache_hit_rate", hits / len(outcomes))
            out.layer["service.cache_hits"] = (
                out.layer.get("service.cache_hits", 0) + hits)
            out.layer["service.duplicate_dispatches"] = (
                out.layer.get("service.duplicate_dispatches", 0) + duplicates)
            if phase == "burst":
                begin = outcomes[0].started
                if ok:
                    wall = max(o.done for o in ok) - begin
                    out.work += len(ok)
                    out.work_seconds += wall
                    out.add("serve_jobs_per_s", len(ok) / wall)
                # Every burst job is due when the phase begins.
                for o in outcomes:
                    out.add("serve_generator_late_ms",
                            (o.started - begin) * 1e3)
            else:
                for o in outcomes:
                    latency = ((o.done - o.started) * 1e3
                               if o.error is None else float("inf"))
                    out.latency_ms.append(latency)
                    out.add("serve_latency_ms", latency)
            self._keep_sample(specs, outcomes, f"{phase}-{index}")
        after = self.service.metrics()
        out.layer["service.batches"] = (after.batches_dispatched
                                        - before.batches_dispatched)
        out.layer["service.jobs_batched"] = (after.jobs_batched
                                             - before.jobs_batched)
        out.layer["service.slots_dispatched"] = (after.slots_dispatched
                                                 - before.slots_dispatched)
        out.layer["service.jobs_failed"] = out.failed
        out.layer["service.jobs"] = out.attempted
        return out

    def _keep_sample(self, specs, outcomes, tag: str) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, "check", tag))
        ok = [i for i, o in enumerate(outcomes) if o.error is None]
        for i in rng.choice(ok, size=min(CHECK_JOBS, len(ok)), replace=False):
            self.samples.append((specs[i], outcomes[i].handle.result()))

    # -- correctness ----------------------------------------------------------

    def check(self) -> Tuple[int, List[str]]:
        """Sampled jobs vs a standalone ``GpuWaveSim.run`` of the same request."""
        engines = [GpuWaveSim(c.circuit, self.library, compiled=c.compiled)
                   for c in self.circuits]
        mismatches = []
        for spec, result in self.samples:
            pairs, plan = self._prepared(spec)
            reference = engines[spec.circuit].run(pairs, plan=plan,
                                                  kernel_table=self.table)
            same = len(reference.waveforms) == len(result.waveforms) and all(
                set(ref) == set(got) and all(
                    ref[net].equivalent(got[net], 0.0) for net in ref)
                for ref, got in zip(reference.waveforms, result.waveforms))
            if not same:
                mismatches.append(
                    f"{self.names[spec.circuit]} {spec.kind} job at "
                    f"{spec.voltages} differs from a standalone engine run")
        return len(self.samples), mismatches

    def demotions(self) -> int:
        return self.service.metrics().backend_demotions if self.service else 0

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
