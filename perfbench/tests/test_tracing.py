import threading
import types

import pytest

from perfbench.tracing import Patcher, Span, SpanRecorder, self_times, timed


def span(span_id, start, end, parent=None, name="s"):
    out = Span(span_id, name, start, parent, 0, {})
    out.end = end
    return out


def test_self_time_subtracts_children():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 3.0, 1), span(3, 5.0, 6.0, 1),
             span(4, 1.5, 2.0, 2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(7.0)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(0.5)


def test_self_time_merges_overlaps_and_clips_children():
    spans = [span(1, 0.0, 10.0), span(2, 2.0, 6.0, 1), span(3, 4.0, 8.0, 1),
             span(4, 9.0, 12.0, 1)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_spans_per_thread():
    recorder = SpanRecorder()
    recorder.ids["workload"] = "w"
    with recorder.span("outer") as outer:
        with recorder.span("inner", job=3) as inner:
            pass

    def other():
        with recorder.span("worker"):
            pass

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert inner.parent == outer.span_id
    assert outer.parent is None
    assert inner.ids == {"workload": "w", "job": 3}
    worker, = recorder.named("worker")
    assert worker.parent is None
    assert recorder.named("worker", main_thread=False) == [worker]
    assert recorder.self_seconds("outer") == pytest.approx(
        outer.seconds - inner.seconds)


def test_patcher_restores_module_class_and_instance_attributes():
    module = types.ModuleType("m")
    module.f = lambda x: x + 1

    class Thing:
        def method(self):
            return "original"

    thing = Thing()
    original_f, original_method = module.f, Thing.__dict__["method"]
    recorder = SpanRecorder()
    patcher = Patcher()
    patcher.replace(module, "f", timed(recorder, "f", module.f))
    patcher.replace(Thing, "method", timed(recorder, "m", Thing.method))
    patcher.replace(thing, "method", timed(recorder, "i", thing.method))
    assert module.f(1) == 2
    assert thing.method() == "original"
    assert Thing().method() == "original"
    assert [s.name for s in recorder.spans] == ["f", "m", "i", "m"]
    patcher.restore()
    assert module.f is original_f
    assert Thing.__dict__["method"] is original_method
    assert "method" not in vars(thing)
