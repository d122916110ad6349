import math

import pytest

from perfbench.stats import finite, summarize, tail_percentile, trimmed_mean


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))  # 1..100
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["median"] == 50.5
    assert summary["trimmed_mean"] == 50.5  # mean of 11..90
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == 91.0  # ten samples lie above it


def test_summarize_small_sample_has_no_tail():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"median": 2.0, "trimmed_mean": 2.0, "n": 3,
                       "tail_pct": None, "tail": None}


def test_trimmed_mean_drops_the_outer_tenths():
    values = [100.0] + [float(v) for v in range(1, 19)] + [-50.0]
    assert trimmed_mean(values) == 9.5  # 100 and -50 dropped, 1..18 kept
    assert trimmed_mean([1.0, 2.0]) == 1.5


def test_failed_operations_push_latency_up():
    summary = summarize([1.0] * 15 + [math.inf] * 15)
    assert summary["median"] == math.inf
    assert finite(summary["median"]) == 1e12
    assert finite(2.5) == 2.5
