import pytest

from airalloc.metrics import (
    BENCH_METHODS,
    LatencyRow,
    energy_efficiency,
    jain_index,
    latency_benchmark,
)
from airalloc.model import reference_params


def test_jain_index_values():
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0, rel=1e-15)
    assert jain_index([4.0, 4.0, 4.0, 4.0]) == pytest.approx(1.0, rel=1e-15)
    # One user hoarding everything bottoms out at 1/n.
    assert jain_index([9.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert jain_index([0.7]) == 1.0


def test_jain_index_rejects_degenerate_input():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([1.0, -0.5])
    with pytest.raises(ValueError):
        jain_index([0.0, 0.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            jain_index([bad, 1.0])


def test_energy_efficiency():
    assert energy_efficiency(1e6, 0.5) == pytest.approx(2e6)
    assert energy_efficiency(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        energy_efficiency(1e6, 0.0)
    with pytest.raises(ValueError):
        energy_efficiency(-1.0, 1.0)
    for bits, joules in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("inf")), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="must be finite"):
            energy_efficiency(bits, joules)


def test_latency_benchmark_rows():
    rows = latency_benchmark([reference_params(1, task_mbits=10.0)], repetitions=2, seed=0)
    assert [row.method for row in rows] == list(BENCH_METHODS)
    for row in rows:
        assert isinstance(row, LatencyRow)
        assert row.n_servers == 1
        assert row.median_s > 0.0
        assert row.repetitions == 2


def test_latency_benchmark_rejects_zero_repetitions():
    with pytest.raises(ValueError, match="repetitions"):
        latency_benchmark([reference_params(1)], repetitions=0)
