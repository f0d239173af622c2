"""The latency summary of a run."""

import pytest

from client import summarize, tail_percentile


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(100))) == (90.0, 89)
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    pct, value = tail_percentile(list(range(60)))
    assert (round(pct, 2), value) == (83.33, 49)
    assert tail_percentile(list(range(12))) == (50.0, 5)


def test_summary_uses_each_configs_best_execution():
    # two configs, three cycles, in execution order; config 0 had a slow burst
    walls = [1.0, 0.1, 3.0, 0.1, 1.2, 0.3]
    s = summarize(walls, 2)
    assert s["jobs_per_s"] == pytest.approx(2 / 1.1)
    assert s["job_p50_s"] == pytest.approx(0.55)
    assert (s["cycles"], s["executions"]) == (3, 6)
