"""Supervised engine-pool unit tests (no service, fake batches)."""

import threading
import time

import pytest

from repro.errors import WorkerLostError
from repro.faults.plan import WorkerDeathError
from repro.service.batcher import PendingBatch
from repro.service.pool import EnginePool


def make_batch():
    return PendingBatch(compat_key="group")


def wait_for(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class Harness:
    """Records handler executions and scripted failures per batch."""

    def __init__(self):
        self.executions = []
        self.lost = []
        self.done = threading.Event()
        self._lock = threading.Lock()
        self._death_budget = {}

    def arm_deaths(self, batch, count):
        self._death_budget[id(batch)] = count

    def handler(self, batch):
        with self._lock:
            self.executions.append(batch)
            budget = self._death_budget.get(id(batch), 0)
            if budget > 0:
                self._death_budget[id(batch)] = budget - 1
        if budget > 0:
            raise WorkerDeathError("test")
        self.done.set()

    def on_batch_lost(self, batch, error):
        self.lost.append((batch, error))
        self.done.set()


@pytest.fixture
def harness():
    return Harness()


def make_pool(harness, **overrides):
    kwargs = dict(workers=1, handler=harness.handler,
                  on_batch_lost=harness.on_batch_lost,
                  hang_timeout_s=0.2, tick_s=0.01)
    kwargs.update(overrides)
    return EnginePool(**kwargs)


class TestEnginePool:
    def test_healthy_batch_executes_once(self, harness):
        pool = make_pool(harness)
        try:
            pool.submit(make_batch())
            assert harness.done.wait(timeout=10)
            assert len(harness.executions) == 1
            assert pool.stats() == {"workers_replaced": 0,
                                    "workers_hung": 0,
                                    "batches_requeued": 0}
        finally:
            pool.close()

    def test_dead_worker_is_replaced_and_batch_requeued_once(self, harness):
        pool = make_pool(harness)
        try:
            batch = make_batch()
            harness.arm_deaths(batch, 1)
            pool.submit(batch)
            assert harness.done.wait(timeout=10)
            assert harness.executions == [batch, batch]
            assert not harness.lost
            stats = pool.stats()
            assert stats["workers_replaced"] == 1
            assert stats["batches_requeued"] == 1
        finally:
            pool.close()

    def test_requeued_batch_runs_before_queued_ones(self, harness):
        """A batch whose worker died re-runs next, ahead of batches
        queued behind it — so its position never depends on how far
        submission had run ahead when the worker died."""
        first, second, third = make_batch(), make_batch(), make_batch()
        queued = threading.Event()

        def handler(batch):
            if batch is first and first not in harness.executions:
                harness.executions.append(batch)
                queued.wait(timeout=10)
                raise WorkerDeathError("test")
            harness.handler(batch)

        pool = make_pool(harness)
        pool._handler = handler
        try:
            for batch in (first, second, third):
                pool.submit(batch)
            queued.set()
            assert wait_for(lambda: len(harness.executions) == 4)
            assert harness.executions == [first, first, second, third]
            assert pool.stats()["batches_requeued"] == 1
        finally:
            pool.close()

    def test_second_loss_fails_the_batch(self, harness):
        pool = make_pool(harness)
        try:
            batch = make_batch()
            harness.arm_deaths(batch, 2)
            pool.submit(batch)
            assert harness.done.wait(timeout=10)
            assert len(harness.lost) == 1
            lost_batch, error = harness.lost[0]
            assert lost_batch is batch
            assert isinstance(error, WorkerLostError)
            assert pool.stats()["workers_replaced"] == 2
        finally:
            pool.close()

    def test_hung_worker_is_abandoned_and_batch_retried(self, harness):
        release = threading.Event()
        first_call = threading.Event()

        def handler(batch):
            if not first_call.is_set():
                first_call.set()
                release.wait(timeout=20)  # simulated wedge (uninterruptible)
                return
            harness.handler(batch)

        pool = make_pool(harness)
        pool._handler = handler
        try:
            pool.submit(make_batch())
            assert harness.done.wait(timeout=10)
            stats = pool.stats()
            assert stats["workers_hung"] == 1
            assert stats["workers_replaced"] == 1
            assert stats["batches_requeued"] == 1
            # The stale thread finishing later must not double-settle.
            release.set()
            assert len(harness.executions) == 1
            assert not harness.lost
        finally:
            release.set()
            pool.close()

    def test_pool_survives_many_sequential_batches(self, harness):
        pool = make_pool(harness, workers=2)
        try:
            batches = [make_batch() for _ in range(20)]
            for batch in batches:
                pool.submit(batch)
            assert wait_for(lambda: len(harness.executions) == 20)
        finally:
            pool.close()
        assert harness.lost == []

    def test_close_waits_for_outstanding_work(self, harness):
        pool = make_pool(harness)
        pool.submit(make_batch())
        pool.close()
        assert len(harness.executions) == 1
