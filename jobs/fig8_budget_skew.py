"""Figs. 7(c)/8(c) as a table: greedyWM under budget skew (config 7)."""
from repro.experiments.figures import budget_skew
from repro.experiments.session import get_spark
from repro.graphs.generator import load_network

if __name__ == "__main__":
    spark = get_spark("fig8c")
    g = load_network(spark, "douban-movie-lite")
    df = budget_skew(g)
    print("== Fig. 7(c)/8(c): budget-skew study ==")
    print(df.to_string(index=False))
    spark.stop()
