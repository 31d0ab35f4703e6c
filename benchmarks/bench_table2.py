"""Benchmark for Table 2: building + profiling the stand-in networks."""
import pytest

from repro.experiments.tables import table2


@pytest.mark.benchmark(group="table2")
def test_bench_table2_network_stats(benchmark, spark):
    """Generate all four stand-in networks and compute their Table 2
    statistics."""
    df = benchmark.pedantic(lambda: table2(spark), rounds=1, iterations=1)
    assert len(df) == 4
    assert set(df["type"]) == {"directed", "undirected"}
