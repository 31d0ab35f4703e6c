"""Table 5: values/noise learned from synthetic bidding histories."""
from repro.experiments.tables import table5

if __name__ == "__main__":
    print("== Table 5: hidden-bid learning vs paper ground truth ==")
    print(table5(seed=0).to_string(index=False))
