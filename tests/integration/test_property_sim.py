"""Property-based cross-engine validation on random circuits.

These are the heavyweight invariants of the whole system:

* the parallel SIMT engine and the serial event-driven engine produce
  bit- and time-identical waveforms on arbitrary circuits and stimuli,
  on every backend and with every delay-model family,
* settled values always equal the zero-delay responses,
* transport-mode arrivals never exceed the STA bound,
* inertial filtering only ever removes transitions.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.backends import AnalyticalDelayBackend, LutDelayBackend
from repro.electrical.model import TransistorCorner
from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.timing.sta import StaticTimingAnalysis

SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def circuit_strategy():
    return st.builds(
        random_circuit,
        name=st.just("prop"),
        num_inputs=st.integers(4, 10),
        num_gates=st.integers(10, 90),
        seed=st.integers(0, 10_000),
    )


@pytest.fixture(scope="module")
def delay_models(characterization, kernel_table):
    """Every delay-model family the engine dispatches, by name."""
    return {
        "static": None,
        "polynomial": kernel_table,
        "lut": LutDelayBackend.from_characterization(characterization),
        "analytical": AnalyticalDelayBackend.from_corner(
            TransistorCorner.typical(), characterization.space),
    }


def oracle_pairs(num_inputs, rng, stimulus):
    """Dense random pairs, or single-input-toggle pairs plus one quiet
    pair — the low-activity stimuli that route the engine through its
    quiet-slot settle and lane-compacted sparse dispatch."""
    if stimulus == "dense":
        return [PatternPair.random(num_inputs, rng) for _ in range(4)]
    pairs = []
    for index in range(4):
        v1 = rng.integers(0, 2, size=num_inputs, dtype=np.uint8)
        v2 = v1.copy()
        if index:
            v2[rng.integers(num_inputs)] ^= 1
        pairs.append(PatternPair(v1, v2))
    return pairs


@settings(max_examples=32, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(circuit=circuit_strategy(), pattern_seed=st.integers(0, 1000),
       voltage=st.sampled_from([0.55, 0.8, 1.1]),
       filtering=st.sampled_from(["inertial", "transport"]),
       backend=st.sampled_from(available_backends()),
       model=st.sampled_from(["static", "polynomial", "lut", "analytical"]),
       stimulus=st.sampled_from(["dense", "single_toggle"]))
def test_engines_equivalent(circuit, pattern_seed, voltage, filtering,
                            backend, model, stimulus, library,
                            delay_models):
    """The parallel engine matches the event-driven oracle exactly.

    Every loadable backend × every delay-model family × dense and
    low-activity stimuli.  Voltage-aware models run a two-voltage slot
    plane, so the per-voltage delay-table lookup is exercised; each
    slot is compared with the oracle run at that slot's voltage.
    """
    delays = delay_models[model]
    voltages = [voltage] if delays is None else [voltage, 0.7]
    compiled = compile_circuit(circuit, library)
    pairs = oracle_pairs(len(circuit.inputs),
                         np.random.default_rng(pattern_seed), stimulus)
    event = EventDrivenSimulator(
        circuit, library, compiled=compiled,
        config=SimulationConfig(record_all_nets=True,
                                pulse_filtering=filtering))
    reference = {v: event.run(pairs, voltage=v, kernel_table=delays)
                 for v in voltages}
    parallel = GpuWaveSim(
        circuit, library, compiled=compiled,
        config=SimulationConfig(record_all_nets=True,
                                pulse_filtering=filtering, backend=backend))
    candidate = parallel.run(pairs, plan=SlotPlan.cross(len(pairs), voltages),
                             kernel_table=delays)
    assert parallel.last_stats.backend == backend
    for slot, (pattern, v) in enumerate(candidate.slot_labels):
        for net in circuit.nets():
            assert reference[v].waveform(pattern, net).equivalent(
                candidate.waveform(slot, net), 0.0), (slot, net)


@SLOW
@given(circuit=circuit_strategy(), pattern_seed=st.integers(0, 1000))
def test_final_values_equal_zero_delay(circuit, pattern_seed, library):
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(pattern_seed)
    pairs = [PatternPair.random(len(circuit.inputs), rng) for _ in range(6)]
    result = GpuWaveSim(circuit, library, compiled=compiled).run(pairs)
    expected = ZeroDelaySimulator(circuit, library).responses(
        np.stack([p.v2 for p in pairs]))
    for slot in range(len(pairs)):
        np.testing.assert_array_equal(
            result.final_values(slot, circuit.outputs), expected[slot])


@SLOW
@given(circuit=circuit_strategy(), pattern_seed=st.integers(0, 1000))
def test_sta_bounds_transport_arrivals(circuit, pattern_seed, library):
    compiled = compile_circuit(circuit, library)
    longest = StaticTimingAnalysis(circuit, library,
                                   compiled=compiled).longest_path_delay()
    rng = np.random.default_rng(pattern_seed)
    pairs = [PatternPair.random(len(circuit.inputs), rng) for _ in range(6)]
    sim = GpuWaveSim(circuit, library, compiled=compiled,
                     config=SimulationConfig(pulse_filtering="transport"))
    result = sim.run(pairs)
    for slot in range(len(pairs)):
        assert result.latest_arrival(slot, circuit.outputs) <= longest + 1e-18


@SLOW
@given(circuit=circuit_strategy(), pattern_seed=st.integers(0, 1000))
def test_inertial_never_adds_transitions(circuit, pattern_seed, library):
    """Inertial filtering only removes transitions — gate-locally.

    The guarantee holds per gate *for identical input waveforms*: it is
    asserted on first-level gates, whose inputs are the (unfiltered)
    primary stimuli in both modes.  Globally the property is false —
    filtering an upstream pulse can unmask downstream switching that
    cancelled out in transport mode, so deeper nets can legitimately
    gain transitions (counterexample: circuit seed 3588, pattern seed
    86)."""
    compiled = compile_circuit(circuit, library)
    rng = np.random.default_rng(pattern_seed)
    pairs = [PatternPair.random(len(circuit.inputs), rng) for _ in range(4)]
    transport = GpuWaveSim(
        circuit, library, compiled=compiled,
        config=SimulationConfig(record_all_nets=True,
                                pulse_filtering="transport")).run(pairs)
    inertial = GpuWaveSim(
        circuit, library, compiled=compiled,
        config=SimulationConfig(record_all_nets=True,
                                pulse_filtering="inertial")).run(pairs)
    primary = set(circuit.inputs)
    level1 = [gate.output for gate in circuit.gates
              if all(pin in primary for pin in gate.inputs)]
    assert level1
    for slot in range(len(pairs)):
        for net in level1:
            kept = len(inertial.waveform(slot, net).times)
            original = len(transport.waveform(slot, net).times)
            assert kept <= original, (slot, net)
