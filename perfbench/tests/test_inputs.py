"""The same seed gives the same inputs; another seed gives others."""

import tempfile

import numpy as np

from perfbench.common import SetupClock
from perfbench.serve_mixed import job_stream


def _same_stream(a, b):
    return len(a) == len(b) and all(
        x.circuit == y.circuit and x.voltages == y.voltages
        and x.kind == y.kind and x.source == y.source
        and np.array_equal(x.v1, y.v1) and np.array_equal(x.v2, y.v2)
        for x, y in zip(a, b))


def test_job_stream_is_fixed_by_seed():
    widths = (30, 44, 68)
    first = job_stream(7, "burst-0", 200, widths)
    assert _same_stream(first, job_stream(7, "burst-0", 200, widths))
    assert not _same_stream(first, job_stream(8, "burst-0", 200, widths))
    assert not _same_stream(first, job_stream(7, "burst-1", 200, widths))


def test_job_stream_mix():
    jobs = job_stream(3, "sequential-0", 2000, (30, 44, 68))
    kinds = [job.kind for job in jobs]
    share = {kind: kinds.count(kind) / len(jobs)
             for kind in ("repeat", "near", "fresh", "quiet")}
    assert abs(share["repeat"] - 0.20) < 0.03
    assert abs(share["near"] - 0.25) < 0.03
    assert abs(share["fresh"] - share["quiet"]) < 0.05
    for job in jobs:
        assert job.v1.shape == job.v2.shape == (8, (30, 44, 68)[job.circuit])
        assert 1 <= len(job.voltages) <= 2
        if job.kind == "repeat":
            source = jobs[job.source]
            assert np.array_equal(job.v2, source.v2)
        elif job.kind == "near":
            source = jobs[job.source]
            assert np.sum(job.v2 != source.v2) == 1
            assert np.array_equal(job.v1, source.v1)
        elif job.kind == "quiet":
            assert np.all(np.sum(job.v1 != job.v2, axis=1) == 1)


def _trajectory(seed, index):
    from perfbench.paper_flow import Workload

    with tempfile.TemporaryDirectory() as scratch:
        workload = Workload(seed, scratch, smoke=True)
        workload.setup(SetupClock())
        loop = workload.loop
        loop.warm_up()
        report = loop.trajectory(index).run(loop.pairs)
    return [(s.effective_voltage, s.raw_arrival, s.energy_per_pattern,
             s.delta_used) for s in report.steps]


def test_trajectory_is_fixed_by_seed():
    first = _trajectory(5, 0)
    assert first == _trajectory(5, 0)
    assert first != _trajectory(6, 0)
