"""§5.1 "Sampling speed" table: Motivo sampling rate over CC's.

The paper compares two sequential samplers over the same urn: Motivo's
(succinct integer treelets, compact tables, alias-method roots,
neighbor buffering) vs CC's (pointer-dereferenced representative
instances in hash maps, no alias, no buffering). We reproduce exactly
that comparison with ``LocalSampler`` in its two modes; the rate ratio
is the table entry.

The ``spark_rate`` column additionally reports the vectorized Spark
sampler's throughput at the same budget — it pays fixed job overhead
that only amortizes at much larger budgets than these, so it is *not*
the per-sample-rate comparison the paper makes (see EXPERIMENTS.md).

    spark-submit jobs/table4_sampling_speed.py [--full]
"""
import time

import pandas as pd

from _common import emit, get_spark, quick_flag
from repro.core import buildup, local_sampler, sampler
from repro.graphs import datasets

GRID_QUICK = [
    ("facebook", 4),
    ("berkstan", 4),
    ("amazon", 4),
    ("dblp", 4),
    ("yelp", 4),
    ("facebook", 5),
    ("amazon", 5),
]
GRID_FULL = GRID_QUICK + [("orkut", 4), ("livejournal", 4), ("dblp", 5), ("yelp", 5)]

N_MOTIVO = 20_000
N_CC = 4_000
BUFFER_THRESHOLD = 100  # scaled-down §3.2 threshold (paper: 1e4)


def run(spark, quick: bool = True) -> pd.DataFrame:
    rows = []
    for name, k in (GRID_QUICK if quick else GRID_FULL):
        g = datasets.load(name)
        tables = buildup.build_tables(spark, g, k, seed=202)
        motivo = local_sampler.LocalSampler(tables, seed=1, buffer_threshold=BUFFER_THRESHOLD)
        t0 = time.monotonic()
        motivo.sample_graphlets(N_MOTIVO)
        motivo_rate = N_MOTIVO / (time.monotonic() - t0)
        cc = local_sampler.LocalSampler(tables, seed=2, cc_mode=True)
        t0 = time.monotonic()
        cc.sample_graphlets(N_CC)
        cc_rate = N_CC / (time.monotonic() - t0)
        t0 = time.monotonic()
        sampler.sample_graphlets(spark, tables, N_MOTIVO, seed=3)
        spark_rate = N_MOTIVO / (time.monotonic() - t0)
        rows.append(
            {
                "graph": name,
                "k": k,
                "motivo_rate": round(motivo_rate),
                "cc_rate": round(cc_rate),
                "speedup": round(motivo_rate / cc_rate, 1),
                "spark_rate": round(spark_rate),
            }
        )
        for df in tables.levels.values():
            df.unpersist()
        print(f"[table4] {rows[-1]}", flush=True)
    return pd.DataFrame(rows)


if __name__ == "__main__":
    emit("table4_sampling_speed", run(get_spark("table4"), quick_flag()))
