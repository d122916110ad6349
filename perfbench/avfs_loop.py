"""The closed-loop AVFS part of the ``paper_flow`` workload.

Each round plays one ``ClosedLoopRunner`` trajectory of fixed length
(convergence disabled) on ``b19`` with energy recording on, which records
every net.  The disturbance is a ``VoltageDroop`` coupled to the measured
switching activity plus seeded jitter, so supplies repeat often but not
always.  This is the only place where the loop layer and the
per-iteration energy accounting carry the time, and where delta reuse is
mostly a full splice of a revisited supply.
"""

from __future__ import annotations

import math
import time
from typing import List, Tuple

import numpy as np

from repro.analysis.activity import switching_activity
from repro.analysis.arrival import latest_arrivals
from repro.analysis.power import dynamic_power
from repro.avfs import (AvfsController, ClosedLoopRunner, DesignSpaceExplorer,
                        LoopConfig, VoltageDroop)
from repro.simulation.base import SimulationConfig
from repro.simulation.gpu import GpuWaveSim

from perfbench.common import Round, SuiteCircuit, derive_seed

CIRCUIT = "b19"
TABLE_VOLTAGES = (0.6, 0.7, 0.8, 0.9, 1.0)
GUARDBAND = 0.05
ITERATIONS = 20

#: Pattern pairs per iteration.  Energy recording keeps every net's
#: waveform, whose extraction is Python-side; 16 pairs keep one
#: full-simulation iteration near a tenth of a second.
LOOP_PAIRS = 16

#: Droop in volts at the reference activity, and the sigma of the
#: seeded jitter on top of it.
DROOP = 0.01
JITTER = 0.001

#: Iterations per trajectory compared against a standalone full run.
CHECK_ITERATIONS = 3


class Loop:
    """Closed-loop trajectories on one compiled circuit."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.pair_count = 6 if smoke else LOOP_PAIRS
        self.iterations = 6 if smoke else ITERATIONS
        self.last = None

    def setup(self, library, table, entry: SuiteCircuit, clock) -> None:
        self.library, self.table, self.entry = library, table, entry
        self.pairs = entry.pairs[:self.pair_count]
        self.sim = GpuWaveSim(entry.circuit, library, compiled=entry.compiled,
                              config=SimulationConfig(record_all_nets=True))
        with clock.part("vf_table"):
            explorer = DesignSpaceExplorer(entry.circuit, library, table,
                                           simulator=self.sim)
            self.vf_table = explorer.voltage_frequency_table(
                self.pairs, TABLE_VOLTAGES, guardband=GUARDBAND)
        # Halfway between the 0.7 V and 0.8 V levels: the loop walks down
        # from the top and settles at 0.7 V with margin for the droop,
        # whatever the seed's patterns.
        levels = {p.voltage: p.critical_delay for p in self.vf_table}
        self.period = 0.5 * (levels[0.7] + levels[0.8]) * (1.0 + GUARDBAND)
        self.loads = entry.circuit.net_loads(library)

    def warm_up(self) -> None:
        result = self.sim.run(self.pairs, voltage=0.8, kernel_table=self.table)
        activity = switching_activity(result)
        self.activity = activity.total_toggles / activity.num_slots

    def trajectory(self, index: int) -> ClosedLoopRunner:
        """The runner of round ``index`` (its droop jitter is seeded)."""
        droop = VoltageDroop(
            DROOP, reference_activity=self.activity * 1.05, jitter=JITTER,
            seed=derive_seed(self.seed, "avfs", "droop", index))
        config = LoopConfig(period=self.period,
                            max_iterations=self.iterations,
                            settle_iterations=self.iterations + 1)
        return ClosedLoopRunner(self.entry.circuit, self.library, self.table,
                                AvfsController(self.vf_table), config,
                                disturbances=[droop], simulator=self.sim)

    def run_round(self, index: int, out: Round) -> None:
        runner = self.trajectory(index)
        start = time.perf_counter()
        report = runner.run(self.pairs)
        seconds = time.perf_counter() - start
        steps = report.steps
        spliced = sum(1 for s in steps
                      if s.delta_used and s.gate_evaluations == 0)
        out.attempted += len(steps)
        out.add("loop_iters_per_s", len(steps) / seconds)
        out.add("loop_splice_fraction", spliced / len(steps))
        out.layer["avfs.iterations"] = len(steps)
        out.layer["avfs.spliced_iterations"] = spliced
        self.last = (index, report)

    def check(self) -> Tuple[int, List[str]]:
        """Sampled iterations vs a standalone full run at their supply."""
        index, report = self.last
        rng = np.random.default_rng(derive_seed(self.seed, "check", index))
        spliced = [s for s in report.steps if s.delta_used]
        picks = list(rng.choice(report.steps, size=min(
            CHECK_ITERATIONS, len(report.steps)), replace=False))
        if spliced and not any(s.delta_used for s in picks):
            picks[-1] = spliced[int(rng.integers(len(spliced)))]
        oracle = GpuWaveSim(self.entry.circuit, self.library,
                            compiled=self.entry.compiled,
                            config=SimulationConfig(record_all_nets=True))
        mismatches = []
        for step in picks:
            voltage = step.effective_voltage
            result = oracle.run(self.pairs, voltage=voltage,
                                kernel_table=self.table)
            arrival = latest_arrivals(result, self.entry.circuit).at(voltage)
            if not math.isfinite(arrival):
                arrival = 0.0
            power = dynamic_power(switching_activity(result), self.loads,
                                  voltage, frequency=1.0 / self.period)
            if (arrival != step.raw_arrival
                    or power.energy_per_pattern != step.energy_per_pattern):
                mismatches.append(
                    f"loop iteration {step.iteration} at {voltage} V: "
                    f"measured {step.raw_arrival!r}/"
                    f"{step.energy_per_pattern!r}, standalone "
                    f"{arrival!r}/{power.energy_per_pattern!r}")
        return len(picks), mismatches

    def demotions(self) -> int:
        return len(self.sim.demotions)
