"""Workload ``paper_flow``: the paper's flow from library to AVFS.

Every set-up characterizes the library cold on the paper's fixed grid
and compiles the delay kernels.  A round then

1. characterizes the library again, cold, with ``AdaptiveConfig()``
   (:mod:`perfbench.charz`): SPICE stand-in, fitting and cross-validated
   order selection, no engine;
2. runs Table I (one parametric full-plane ``GpuWaveSim.run`` per circuit
   at 0.8 V) and Table II (the 6-voltage ``SlotPlan.cross`` sweep, then
   ``latest_arrivals`` and static timing analysis) on three circuits:
   random broadside pairs keep nearly every lane active, so delay
   evaluation and the dense merge/pack kernels carry them;
3. plays one closed-loop AVFS trajectory on ``b19``
   (:mod:`perfbench.avfs_loop`): the loop layer, energy accounting and
   full-splice delta reuse.

The service does none of the work.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.arrival import latest_arrivals
from repro.experiments.paper_data import TABLE2_VOLTAGES
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.timing.sta import StaticTimingAnalysis

from perfbench.avfs_loop import CIRCUIT as LOOP_CIRCUIT, Loop
from perfbench.charz import Charz
from perfbench.common import (BaseWorkload, Round, cold_kernel_table,
                              derive_seed, suite_circuit)

#: ~1.9k, ~4.8k and ~8.5k nodes at suite scale 0.02.
CIRCUITS = ("p100k", "b19", "p418k")
SMOKE_CIRCUITS = ("s38417",)

TABLE1_VOLTAGE = 0.8

#: The Table II supply at which sampled slots are checked bit for bit.
CHECK_VOLTAGE = 0.7
CHECK_SLOTS = 3


class Workload(BaseWorkload):
    name = "paper_flow"
    unit = {"op": "round: adaptive characterization, Tables I and II on "
                  "every circuit, one AVFS trajectory",
            "work": "node evaluations in Table I runs"}

    def __init__(self, seed: int, scratch: str, smoke: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.names = SMOKE_CIRCUITS if smoke else CIRCUITS
        self.pair_limit = 12 if smoke else 0
        self.checked: Dict[str, tuple] = {}
        self.demotion_logs: List[List[str]] = []
        self.loop = Loop(seed, smoke)
        self.charz = Charz(seed, smoke)

    def setup(self, clock) -> None:
        self.library, fixed, self.table = cold_kernel_table(self.scratch,
                                                            clock)
        self.charz.setup(self.library, fixed)
        self.entries = []
        for name in self.names:
            entry = suite_circuit(name, self.library,
                                  derive_seed(self.seed, self.name, name),
                                  clock, count=self.pair_limit)
            plan = SlotPlan.cross(len(entry.pairs), TABLE2_VOLTAGES)
            self.entries.append((entry, plan))
        loop_entry = next((e for e, _p in self.entries
                           if e.name == LOOP_CIRCUIT), self.entries[-1][0])
        self.loop.setup(self.library, self.table, loop_entry, clock)

    def _engine(self, entry) -> GpuWaveSim:
        # Like the table drivers, every table run gets its own engine, so
        # only one plane-sized waveform arena is alive at a time.
        sim = GpuWaveSim(entry.circuit, self.library, compiled=entry.compiled)
        self.demotion_logs.append(sim.demotions)
        return sim

    def warm_up(self) -> None:
        for entry, plan in self.entries:
            self._engine(entry).run(entry.pairs, voltage=TABLE1_VOLTAGE,
                                    kernel_table=self.table)
            self._sweep(entry, plan)
        self.loop.warm_up()

    def _sweep(self, entry, plan):
        result = self._engine(entry).run(entry.pairs, plan=plan,
                                         kernel_table=self.table)
        report = latest_arrivals(result, entry.circuit, plan=plan)
        arrivals = [report.at(v) for v in TABLE2_VOLTAGES]
        longest = StaticTimingAnalysis(
            entry.circuit, self.library,
            compiled=entry.compiled).longest_path_delay()
        return result, arrivals, longest

    def run_round(self, index: int) -> Round:
        out = Round()
        round_start = time.perf_counter()
        self.charz.run_round(out)
        for entry, plan in self.entries:
            sim = self._engine(entry)
            # The first run on a fresh engine allocates its arena; Table I
            # times the parametric run after that, as its driver does.
            sim.run(entry.pairs, voltage=TABLE1_VOLTAGE, kernel_table=self.table)
            start = time.perf_counter()
            sim.run(entry.pairs, voltage=TABLE1_VOLTAGE, kernel_table=self.table)
            seconds = time.perf_counter() - start
            del sim
            evaluations = entry.nodes * len(entry.pairs)
            out.work += evaluations
            out.work_seconds += seconds
            out.add("table1_meps", evaluations / seconds / 1e6)

            start = time.perf_counter()
            result, arrivals, longest = self._sweep(entry, plan)
            seconds = time.perf_counter() - start
            out.add("table2_sweep_s", seconds)
            out.attempted += 2
            self._keep_sample(entry, plan, result, arrivals, longest)
            del result
        self.loop.run_round(index, out)
        out.latency_ms.append((time.perf_counter() - round_start) * 1e3)
        return out

    def _keep_sample(self, entry, plan, result, arrivals, longest) -> None:
        """Keep the slots the correctness check compares (not the plane)."""
        rng = np.random.default_rng(
            derive_seed(self.seed, self.name, "check", entry.name))
        patterns = rng.choice(len(entry.pairs),
                              size=min(CHECK_SLOTS, len(entry.pairs)),
                              replace=False)
        chosen = set(patterns.tolist())
        slots = [int(s) for s in plan.slots_for_voltage(CHECK_VOLTAGE)
                 if plan.pattern_indices[s] in chosen]
        waves = [result.waveforms[s] for s in slots]
        pats = [int(plan.pattern_indices[s]) for s in slots]
        self.checked[entry.name] = (arrivals, longest, pats, waves)

    def check(self) -> Tuple[int, List[str]]:
        """Sampled slots vs the event-driven simulator; arrival monotonicity."""
        checked, mismatches = 0, []
        for entry, _plan in self.entries:
            arrivals, longest, pats, waves = self.checked[entry.name]
            checked += 1
            ordered = [a for _v, a in sorted(zip(TABLE2_VOLTAGES, arrivals))]
            if any(lo < hi for lo, hi in zip(ordered, ordered[1:])):
                mismatches.append(f"{entry.name}: latest arrival rises "
                                  f"with supply {ordered}")
            if not ordered[-1] > 0 or not longest > 0:
                mismatches.append(f"{entry.name}: non-positive timing")
            oracle = EventDrivenSimulator(entry.circuit, self.library,
                                          compiled=entry.compiled)
            reference = oracle.run([entry.pairs[p] for p in pats],
                                   voltage=CHECK_VOLTAGE,
                                   kernel_table=self.table)
            for k, waveforms in enumerate(waves):
                checked += 1
                for net, wave in waveforms.items():
                    if not reference.waveform(k, net).equivalent(wave, 0.0):
                        mismatches.append(
                            f"{entry.name}: pattern {pats[k]} net {net} "
                            f"differs from the event-driven simulator")
                        break
        for part in (self.loop, self.charz):
            part_checked, part_mismatches = part.check()
            checked += part_checked
            mismatches += part_mismatches
        self.worst_error = self.charz.worst_error
        return checked, mismatches

    def demotions(self) -> int:
        return (sum(len(log) for log in self.demotion_logs)
                + self.loop.demotions())

    def call_sites(self):
        return [sys.modules[__name__]]

    def spice_instances(self):
        return [self.charz.spice]
