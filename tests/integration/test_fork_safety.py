"""Worker pools stay live after the native kernels ran in the parent.

A ``fork`` taken after the cext OpenMP team has started copies a
runtime whose worker threads do not exist in the child: the child's
first parallel kernel call then blocks forever on a futex.  The
campaign runner and the multi-device engine therefore start their
worker processes with ``spawn``.  This test warms cext in a fresh
interpreter, then runs a two-worker campaign and a two-device run; the
interpreter must finish under a hard timeout with results identical to
the in-process run.
"""

import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.simulation.backend import available_backends

TIMEOUT_SECONDS = 180

SCRIPT = """
import numpy as np

from repro.cells import make_nangate15_library
from repro.netlist.generate import random_circuit
from repro.runtime import CampaignConfig, CampaignRunner
from repro.runtime.report import ENGINE_WORKER
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.multi import MultiDeviceWaveSim

library = make_nangate15_library()
circuit = random_circuit("forksafe", 10, 120, seed=5)
rng = np.random.default_rng(5)
pairs = [PatternPair.random(10, rng) for _ in range(8)]
config = SimulationConfig(backend="cext", record_all_nets=True)

# Start the OpenMP team in this process before any pool exists.
warm = GpuWaveSim(circuit, library, config=config).run(pairs)

campaign = CampaignRunner(
    circuit, library, config=config,
    campaign=CampaignConfig(chunk_slots=4, num_workers=2,
                            backoff_seconds=0.0, degrade_in_process=False,
                            degrade_event_driven=False),
).run(pairs)
assert all(chunk.attempts[-1].engine == ENGINE_WORKER
           for chunk in campaign.report.chunks)
multi = MultiDeviceWaveSim(circuit, library, config=config,
                           num_devices=2).run(pairs)
assert multi.engine.startswith("multi-device[2]"), multi.engine

for result in (campaign, multi):
    for slot in range(len(pairs)):
        for net in circuit.nets():
            a, b = warm.waveform(slot, net), result.waveform(slot, net)
            assert a.initial == b.initial and \\
                a.times.tolist() == b.times.tolist(), (slot, net)
print("pools-ok")
"""


@pytest.mark.skipif("cext" not in available_backends(),
                    reason="cext backend does not build here")
def test_pools_survive_warm_native_kernels():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        # Kill the whole session: hung pool workers included.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"worker pools hung for {TIMEOUT_SECONDS} s after the "
                    f"native kernels ran in the parent")
    assert proc.returncode == 0, err
    assert "pools-ok" in out
