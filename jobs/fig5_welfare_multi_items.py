"""Fig. 5 as a table: welfare under configs 7-10, total budget swept."""
from repro.experiments.figures import multi_item_welfare
from repro.experiments.session import get_spark
from repro.graphs.generator import load_network

if __name__ == "__main__":
    spark = get_spark("fig5")
    g = load_network(spark, "douban-movie-lite")
    df = multi_item_welfare(g)
    print("== Fig. 5: expected social welfare (10 items, configs 7-10) ==")
    print(df.to_string(index=False))
    spark.stop()
