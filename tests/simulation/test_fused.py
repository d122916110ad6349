"""Level-plan execution: bit-identity, plan caching, phase timing.

The contract under test (``compiled.py`` / ``gpu.py``): the engine walks
one compacted :class:`LevelPlan` per level — one backend ``run_level``
call covering every arity group, with the 2-D Horner delay polynomial
evaluated inside the merge loop.  The per-lane algorithm is the same on
every backend, so waveforms must be **bit identical** to the numpy
backend and equal to the independent event-driven oracle, for static,
multi-voltage parametric, Monte-Carlo, overflow-retry and sparse
lane-tracked workloads alike.
"""

import numpy as np
import pytest

from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import (
    clear_level_plan_cache,
    compile_circuit,
    level_plan_cache_stats,
)
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import ProcessVariation

CONCRETE = available_backends()


def make_pairs(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng) for _ in range(count)]


def single_toggle_pairs(circuit, count, seed=0):
    """Pairs toggling exactly one input: slots classify as lane-tracked,
    so the fused path's sparse (lane-compacted) entry runs."""
    rng = np.random.default_rng(seed)
    width = len(circuit.inputs)
    pairs = []
    for i in range(count):
        v1 = rng.integers(0, 2, size=width).astype(np.uint8)
        v2 = v1.copy()
        v2[i % width] ^= 1
        pairs.append(PatternPair(v1, v2))
    return pairs


def quiet_pairs(circuit, count, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(count, len(circuit.inputs)))
    return [PatternPair(v, v.copy()) for v in vectors]


def assert_identical(reference, candidate, num_slots, nets):
    for slot in range(num_slots):
        for net in nets:
            wa = reference.waveform(slot, net)
            wb = candidate.waveform(slot, net)
            assert wa.initial == wb.initial, (slot, net)
            # Bit-identical: list equality on raw float64, no tolerance.
            assert wa.times.tolist() == wb.times.tolist(), (slot, net)


def run_engine(circuit, compiled, library, pairs, *, backend,
               plan=None, kernel_table=None, variation=None, capacity=None,
               prune=True):
    kwargs = dict(record_all_nets=True, backend=backend,
                  prune_inactive=prune)
    if capacity is not None:
        kwargs["waveform_capacity"] = capacity
    sim = GpuWaveSim(circuit, library, config=SimulationConfig(**kwargs),
                     compiled=compiled)
    result = sim.run(pairs, plan=plan, kernel_table=kernel_table,
                     variation=variation)
    return result, sim.last_stats


def event_driven(circuit, compiled, library, pairs, plan=None,
                 kernel_table=None, variation=None):
    """Per-slot waveforms of the serial event-driven oracle: one run
    per distinct voltage, die factors keyed by global slot index."""
    plan = plan or SlotPlan.uniform(len(pairs), 0.8)
    sim = EventDrivenSimulator(circuit, library, compiled=compiled,
                               config=SimulationConfig(record_all_nets=True))
    waveforms = [None] * plan.num_slots
    for voltage in np.unique(plan.voltages):
        slots = np.nonzero(plan.voltages == voltage)[0]
        result = sim.run([pairs[i] for i in plan.pattern_indices[slots]],
                         voltage=float(voltage), kernel_table=kernel_table,
                         variation=variation, slot_indices=slots)
        for local, slot in enumerate(slots):
            waveforms[slot] = result.waveforms[local]
    return waveforms


def assert_matches_references(circuit, compiled, library, pairs,
                              backend_name, **kwargs):
    """``backend == numpy`` bit for bit (waveforms and lane accounting)
    and ``== event-driven``; returns the backend run's stats."""
    candidate, stats = run_engine(circuit, compiled, library, pairs,
                                  backend=backend_name, **kwargs)
    reference, ref_stats = run_engine(circuit, compiled, library, pairs,
                                      backend="numpy", **kwargs)
    assert stats.backend == backend_name
    assert_identical(reference, candidate, candidate.num_slots,
                     circuit.nets())
    assert stats.gate_evaluations == ref_stats.gate_evaluations
    assert stats.lanes_skipped == ref_stats.lanes_skipped
    oracle = event_driven(circuit, compiled, library, pairs,
                          plan=kwargs.get("plan"),
                          kernel_table=kwargs.get("kernel_table"),
                          variation=kwargs.get("variation"))
    for slot in range(candidate.num_slots):
        for net in circuit.nets():
            assert oracle[slot][net].equivalent(
                candidate.waveform(slot, net), 0.0), (slot, net)
    return stats


class TestBitIdentity:
    """Every backend equals numpy bit for bit and the event-driven
    oracle exactly."""

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_static_delays(self, library, backend_name):
        circuit = random_circuit("fused_s", 8, 150, seed=31)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 6, 31)
        assert_matches_references(circuit, compiled, library, pairs,
                                  backend_name)

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_parametric_multi_voltage(self, library, kernel_table,
                                      backend_name):
        """Voltage-dependent delays evaluated per (gate, voltage)."""
        circuit = random_circuit("fused_v", 8, 120, seed=33)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 4, 33)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8, 1.0])
        assert_matches_references(circuit, compiled, library, pairs,
                                  backend_name, plan=plan,
                                  kernel_table=kernel_table)

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_monte_carlo_variation(self, library, kernel_table,
                                   backend_name):
        """Per-slot die factors fold into the same level entry point."""
        circuit = random_circuit("fused_mc", 8, 120, seed=35)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 4, 35)
        assert_matches_references(
            circuit, compiled, library, pairs, backend_name,
            kernel_table=kernel_table,
            variation=ProcessVariation(sigma=0.1, seed=77))

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_overflow_retry_path(self, library, kernel_table, backend_name):
        """Capacity-doubling retries rerun the level dispatch from
        scratch; plans and normalization memos must carry over clean."""
        circuit = random_circuit("fused_o", 12, 200, seed=36)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 6, 36)
        stats = assert_matches_references(
            circuit, compiled, library, pairs, backend_name,
            kernel_table=kernel_table, capacity=2)
        assert stats.retries >= 1, "workload must exercise the retry"

    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_sparse_lane_tracked(self, library, backend_name):
        """Mixed dense / lane-tracked / quiet slots: the lane-compacted
        sparse dispatch and the activity accounting must match numpy
        exactly."""
        circuit = random_circuit("fused_l", 8, 150, seed=37)
        compiled = compile_circuit(circuit, library)
        pairs = (make_pairs(circuit, 4, 37) +
                 single_toggle_pairs(circuit, 4, 39) +
                 quiet_pairs(circuit, 4, 38))
        stats = assert_matches_references(circuit, compiled, library,
                                          pairs, backend_name)
        assert stats.lanes_skipped > 0


class TestLevelPlans:
    def test_plan_structure(self, library):
        """Plans cover every gate exactly once, arity runs are
        contiguous, and spare pins point at the constant-0 dummy net."""
        circuit = random_circuit("fused_p", 8, 120, seed=41)
        compiled = compile_circuit(circuit, library)
        plans = compiled.plans()
        assert len(plans.levels) == len(compiled.levels)
        seen = []
        for plan in plans.levels:
            assert plan.num_gates == plan.gate_indices.size
            seen.extend(plan.gate_indices.tolist())
            # Arity-sorted with matching group bounds.
            assert np.all(np.diff(plan.arities) >= 0)
            for g in range(plan.num_groups):
                lo, hi = plan.group_offsets[g], plan.group_offsets[g + 1]
                assert np.all(plan.arities[lo:hi] == plan.group_arity[g])
            # Spare pins are wired to the dummy net.
            for row, arity in enumerate(plan.arities):
                spare = plan.in_ids[row, arity:]
                assert np.all(spare == compiled.dummy_net_id)
            # Gathered arrays match the compiled source of truth.
            idx = plan.gate_indices
            assert plan.out_ids.tolist() == \
                compiled.gate_output[idx].tolist()
            assert plan.nominal.tolist() == \
                compiled.nominal_delays[idx].tolist()
        assert sorted(seen) == list(range(compiled.num_gates))

    def test_plans_shared_across_compiled_copies(self, library):
        """Two independent compiles of one circuit hit the
        fingerprint-keyed process cache."""
        circuit = random_circuit("fused_c", 8, 80, seed=43)
        clear_level_plan_cache()
        a = compile_circuit(circuit, library).plans()
        stats = level_plan_cache_stats()
        assert stats["misses"] == 1 and stats["entries"] == 1
        b = compile_circuit(circuit, library).plans()
        assert b is a
        assert level_plan_cache_stats()["hits"] >= 1

    def test_mutated_copy_gets_fresh_plans(self, library):
        """A compiled copy with different delays (ATPG fault injection
        shallow-copies and mutates) must not reuse stale plans."""
        import copy

        circuit = random_circuit("fused_m", 8, 80, seed=44)
        compiled = compile_circuit(circuit, library)
        base = compiled.plans()
        faulty = copy.copy(compiled)
        faulty.nominal_delays = compiled.nominal_delays.copy()
        faulty.nominal_delays[0, 0, :] += 1e-9
        mutated = faulty.plans()
        assert mutated is not base
        # The mutated delay shows up in gate 0's plan row.
        for plan in mutated.levels:
            rows = np.nonzero(plan.gate_indices == 0)[0]
            if rows.size:
                assert plan.nominal[rows[0], 0, 0] == \
                    faulty.nominal_delays[0, 0, 0]
        # The original still resolves to its own plans.
        assert compiled.plans() is base

    def test_plans_shared_across_service_jobs(self, library):
        """Jobs on independently compiled copies of one circuit — even
        in separate service instances — share one plan set through the
        fingerprint-keyed process cache: the plans build exactly once."""
        from repro.service import ServiceConfig, SimulationService

        circuit = random_circuit("fused_j", 8, 80, seed=45)
        pairs = make_pairs(circuit, 2, 45)
        clear_level_plan_cache()
        config = SimulationConfig(backend="numpy")
        for _ in range(2):
            with SimulationService(config=ServiceConfig(cache_entries=0)) \
                    as service:
                key = service.register_circuit(
                    circuit, library, compiled=compile_circuit(
                        circuit, library))
                handle = service.submit(key, pairs, config=config)
                assert handle.result().gate_evaluations > 0
        stats = level_plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 1

    def test_normalization_memoized(self, library, kernel_table):
        """φ_V / φ_C land in plan-level memos and are reused by value."""
        circuit = random_circuit("fused_n", 8, 80, seed=46)
        plans = compile_circuit(circuit, library).plans()
        volts = np.array([0.6, 0.8, 1.0])
        nv1 = plans.normalized_voltages(kernel_table.space, volts)
        nv2 = plans.normalized_voltages(kernel_table.space, volts.copy())
        assert nv2 is nv1
        assert nv1.tolist() == \
            kernel_table.space.normalize_voltage(volts).tolist()
        nc1 = plans.normalized_loads(kernel_table.space)
        nc2 = plans.normalized_loads(kernel_table.space)
        assert nc2 is nc1
        assert len(nc1) == len(plans.levels)
        for level_nc, plan in zip(nc1, plans.levels):
            assert level_nc.tolist() == kernel_table.space.normalize_load(
                plan.loads).tolist()


class TestPhaseTiming:
    @pytest.mark.parametrize("backend_name", CONCRETE)
    def test_phases_recorded(self, library, kernel_table, backend_name):
        circuit = random_circuit("fused_t", 8, 120, seed=47)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 4, 47)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8])
        _, stats = run_engine(circuit, compiled, library, pairs,
                              backend=backend_name,
                              plan=plan, kernel_table=kernel_table)
        phases = stats.phase_seconds()
        assert set(phases) == {"delay", "merge", "pack"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        # Merge covers the level kernel work and pack the unpack/settle
        # stage — both necessarily ran.
        assert phases["merge"] > 0.0
        assert phases["pack"] > 0.0

    @pytest.mark.parametrize("model", ["polynomial", "lut"])
    def test_materialized_delays_report_delay_phase(
            self, library, characterization, kernel_table, model):
        """Delays materialized outside the merge loop — numpy's
        polynomial evaluation, any backend's delay-model table — are
        timed as their own phase."""
        from repro.core.backends import LutDelayBackend

        delays = (kernel_table if model == "polynomial" else
                  LutDelayBackend.from_characterization(characterization))
        circuit = random_circuit("fused_d", 8, 120, seed=48)
        compiled = compile_circuit(circuit, library)
        pairs = make_pairs(circuit, 4, 48)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.8])
        _, stats = run_engine(circuit, compiled, library, pairs,
                              backend="numpy",
                              plan=plan, kernel_table=delays)
        assert stats.phase_seconds()["delay"] > 0.0
