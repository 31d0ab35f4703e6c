"""Fig. 4 as a table: allocation running time, config 1, 4 networks."""
from repro.experiments.figures import runtime_comparison
from repro.experiments.session import get_spark
from repro.graphs.generator import NETWORK_SPECS, load_network

if __name__ == "__main__":
    spark = get_spark("fig4")
    graphs = [load_network(spark, n) for n in NETWORK_SPECS]
    df = runtime_comparison(graphs)
    print("== Fig. 4: allocation running time (s), configuration 1 ==")
    print(df.to_string(index=False))
    spark.stop()
