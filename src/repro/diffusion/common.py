"""Spark's deterministic coin; ``diffusion.reach.coin`` is its NumPy port."""
from __future__ import annotations

from pyspark.sql import Column
from pyspark.sql import functions as F

_TWO_64 = float(2**64)


def coin(seed: int, *cols: Column | str) -> Column:
    """Deterministic uniform [0,1) draw keyed by (seed, *cols).

    ``xxhash64`` gives a signed 64-bit hash; shifting into [0,1) yields a
    reproducible coin that is *consistent* across jobs touching the same
    key — this is how a possible world's edge statuses are "remembered"
    (§3.2 step 1) without materializing them: the same (world, src, dst)
    always flips the same coin.
    """
    hashed = F.xxhash64(F.lit(seed), *[F.col(c) if isinstance(c, str) else c for c in cols])
    return hashed.cast("double") / F.lit(_TWO_64) + F.lit(0.5)

