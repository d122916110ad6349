"""Pieces every workload shares: seeds, cold set-up, the round record."""

from __future__ import annotations

import tempfile
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

from repro.atpg.patterns import random_pattern_set
from repro.cells.nangate15 import make_nangate15_library
from repro.core.characterization import characterize_library
from repro.core.charz_cache import CoefficientCache
from repro.electrical.spice import AnalyticalSpice
from repro.netlist.suite import build_suite_circuit, scaled_pattern_count
from repro.simulation.compiled import clear_level_plan_cache, compile_circuit
from repro.simulation.pool import clear_engine_pool

#: Suite scale of every engine workload (the experiments' default).
SCALE = 0.02

#: Half-order of the fixed-grid kernel table the engine workloads use.
KERNEL_ORDER = 3


def derive_seed(seed: int, *tags: object) -> int:
    """A 31-bit seed for one input stream, fixed by ``seed`` and ``tags``."""
    text = ":".join(str(part) for part in (seed, *tags))
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


class SetupClock:
    """Accumulates the wall time of each named set-up part."""

    def __init__(self) -> None:
        self.parts: Dict[str, float] = {}

    @contextmanager
    def part(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.parts[name] = (self.parts.get(name, 0.0)
                                + time.perf_counter() - start)


def cold_kernel_table(scratch: str, clock: SetupClock):
    """Library, its fixed-grid characterization and the compiled kernels.

    Every process-wide cache the program keeps (coefficient memo, level
    plans, pooled engines) is emptied first and the coefficient cache
    points at a new directory, so each set-up pays the same cold cost
    whatever ran before it in this process.
    """
    CoefficientCache.clear_memo()
    clear_level_plan_cache()
    clear_engine_pool()
    with clock.part("charz"):
        library = make_nangate15_library()
        cache = CoefficientCache(tempfile.mkdtemp(dir=scratch, prefix="charz-"))
        characterization = characterize_library(
            library, AnalyticalSpice(), n=KERNEL_ORDER, cache=cache)
        table = characterization.compile()
    return library, characterization, table


@dataclass
class SuiteCircuit:
    """One compiled suite circuit with its pattern pairs."""

    name: str
    circuit: object
    compiled: object
    pairs: list

    @property
    def nodes(self) -> int:
        return self.circuit.num_nodes


def suite_circuit(name: str, library, seed: int, clock: SetupClock,
                  scale: float = SCALE, count: int = 0) -> SuiteCircuit:
    """Build, compile and pattern a suite circuit like the table drivers.

    Every circuit used here is above the experiments' ATPG gate limit,
    so, as there, its pairs are random broadside transitions.
    """
    with clock.part("prepare"):
        circuit = build_suite_circuit(name, scale=scale)
    with clock.part("compile"):
        compiled = compile_circuit(circuit, library)
    with clock.part("prepare"):
        count = count or scaled_pattern_count(name, scale=scale)
        patterns = random_pattern_set(circuit, count, seed=seed)
    return SuiteCircuit(name, circuit, compiled, list(patterns.pairs))


class BaseWorkload:
    """What ``run.py`` expects of a workload, with do-nothing defaults.

    A workload also provides ``setup(clock)``, ``run_round(index)``
    returning a :class:`Round`, and ``check()`` returning the number of
    outputs checked and a list of mismatch descriptions.
    """

    name = ""
    #: What one operation and one unit of work are, for the report.
    unit: Dict[str, str] = {}
    #: A traced run sets this to a callable that stamps ids (such as the
    #: phase) on the spans begun after the call.
    mark = None

    def warm_up(self) -> None:
        """Run once whatever the timed rounds run, before timing starts."""

    def demotions(self) -> int:
        """Backend demotions the program reported during the run."""
        return 0

    def call_sites(self) -> list:
        """The workload's own modules that call layer functions directly."""
        return []

    def spice_instances(self) -> list:
        """SPICE stand-in objects the workload handed to the program."""
        return []

    def close(self) -> None:
        """Stop whatever the set-up started."""


@dataclass
class Round:
    """What one round of a workload did and how long its parts took.

    ``latency_ms`` are samples of the workload's operation latency,
    ``work / work_seconds`` its throughput, ``named`` samples of the
    workload's own headline figures and ``layer`` counts the workload
    can read off the program's reports.
    """

    latency_ms: List[float] = field(default_factory=list)
    work: float = 0.0
    work_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    named: Dict[str, List[float]] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.named.setdefault(name, []).append(float(value))

