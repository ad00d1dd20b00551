"""The CC baseline build-up — "the C++/Java port" Motivo is measured
against (paper §3: CC of [7, 8], re-implemented to be incrementally
upgraded into Motivo).

Same dynamic program as :mod:`buildup`, but with CC's data-structure
decisions faithfully recreated at the Spark layer:

- **Pointer-style treelets**: every treelet is a *representative
  instance* — a nested-structure string — and every candidate pair runs
  a recursive Python ``check_and_merge`` (parse both structures, check
  the canonical-decomposition condition, rebuild the merged structure),
  exactly the per-pair cost that dominates CC's build-up (the paper
  measures ~50% of CC's time in check-and-merge). No broadcast merge
  table, no integer bit-ops.
- **64-bit counters** (CC "often causes overflows"): counts are Spark
  longs; :func:`check_overflow_risk` reports when the Motivo decimal
  tables reveal counts beyond int64, which is when the paper prints a
  dash for CC.
- **Fully memory-resident tables**: every level is persisted in executor
  memory (CC's per-vertex hash tables in the JVM heap); nothing is
  flushed to disk. :func:`cached_table_bytes` asks the block manager for
  the resident size — the quantity compared against Motivo's on-disk
  parquet footprint in the count-table-size table (§5.1).

The outputs are bit-identical to Motivo's tables (cross-checked in
tests) — only the costs differ, which is precisely the paper's framing.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import StringType
from pyspark.storagelevel import StorageLevel

from ..graphs.generators import Graph
from . import coloring, treelet as tl
from .buildup import BuildStats, core_sized_shuffles

INT64_MAX = (1 << 63) - 1


def enc_to_str(t: int) -> str:
    """CC-style representative instance: nested parentheses, children in
    canonical order. The singleton is the empty string."""
    return "".join("(" + enc_to_str(c) + ")" for c in tl.children(t))


def str_to_enc(s: str) -> int:
    """Parse a representative instance back to the succinct encoding."""
    stack = [[]]
    for ch in s:
        if ch == "(":
            stack.append([])
        else:
            children = stack.pop()
            t = tl.SINGLETON
            for c in sorted(children, reverse=True):
                t = tl.merge(t, c)
            stack[-1].append(t)
    children = stack.pop()
    t = tl.SINGLETON
    for c in sorted(children, reverse=True):
        t = tl.merge(t, c)
    return t


def _check_and_merge(left: str, right: str) -> str | None:
    """CC's recursive check-and-merge on representative instances: if
    ``right`` can become the first child of ``left``'s root (i.e. it is
    <= every current child), return the merged instance, else None."""
    lt = str_to_enc(left)
    rt = str_to_enc(right)
    if not tl.is_valid_merge(lt, rt):
        return None
    return enc_to_str(tl.merge(lt, rt))


def build_tables_cc(
    spark: SparkSession,
    graph: Graph,
    k: int,
    *,
    seed: int = 0,
) -> tuple[dict[int, DataFrame], np.ndarray, BuildStats]:
    """Run the CC-style build-up; returns (levels, colors, stats).

    Level DataFrames have columns ``v``, ``t`` (instance string), ``c``
    (colorset mask), ``cnt`` (int64) and are persisted in memory.
    """
    colors = coloring.assign_colors(graph.n, k, seed=seed)
    stats = BuildStats()
    edges = graph.edges_df(spark).persist()
    check_and_merge = F.udf(_check_and_merge, StringType())
    beta_udf = F.udf(lambda s: tl.beta(str_to_enc(s)), "int")
    levels: dict[int, DataFrame] = {}
    try:
        # the same shuffle width as Motivo's build, so the Motivo/CC
        # ratio compares the data structures, not a plan setting
        with core_sized_shuffles(spark):
            edges.count()
            t0 = time.monotonic()
            lvl1 = spark.createDataFrame(
                pd.DataFrame(
                    {
                        "v": np.arange(graph.n),
                        "t": "",
                        "c": (1 << colors).astype(np.int64),
                        "cnt": np.int64(1),
                    }
                )
            ).persist(StorageLevel.MEMORY_ONLY)
            levels[1] = lvl1
            stats.rows_per_level[1] = lvl1.count()
            stats.seconds_per_level[1] = time.monotonic() - t0

            # sizes of treelet instances, to pair levels (j, h-j); the string
            # length encodes the size: 2*(size-1) parentheses.
            for h in range(2, k + 1):
                t0 = time.monotonic()
                parts = []
                for size_r in range(1, h):
                    size_l = h - size_r
                    left = levels[size_l].alias("l")
                    right = levels[size_r].alias("r")
                    e = edges.alias("e")
                    merged = (
                        left.join(e, F.col("l.v") == F.col("e.src"))
                        .join(right, F.col("e.dst") == F.col("r.v"))
                        .where(F.col("l.c").bitwiseAND(F.col("r.c")) == 0)
                        # the expensive part: per-pair recursive check-and-merge
                        .withColumn("tm", check_and_merge(F.col("l.t"), F.col("r.t")))
                        .where(F.col("tm").isNotNull())
                        .groupBy(
                            F.col("l.v").alias("v"),
                            F.col("tm").alias("t"),
                            F.col("l.c").bitwiseOR(F.col("r.c")).alias("c"),
                        )
                        .agg(F.sum(F.col("l.cnt") * F.col("r.cnt")).alias("pairsum"))
                    )
                    parts.append(merged)
                lvl = parts[0]
                for p in parts[1:]:
                    lvl = lvl.unionByName(p)
                lvl = lvl.select(
                    "v", "t", "c", (F.col("pairsum") / beta_udf(F.col("t"))).cast("long").alias("cnt")
                ).persist(StorageLevel.MEMORY_ONLY)
                levels[h] = lvl
                stats.rows_per_level[h] = lvl.count()
                stats.seconds_per_level[h] = time.monotonic() - t0
    finally:
        edges.unpersist()

    return levels, colors, stats


def cached_table_bytes(spark: SparkSession) -> int:
    """Resident in-memory size of all cached RDD blocks (the CC "JVM
    heap footprint" of the count tables), via the block manager."""
    sc = spark.sparkContext
    infos = sc._jsc.sc().getRDDStorageInfo()
    return int(sum(i.memSize() for i in infos))


def check_overflow_risk(motivo_tables) -> bool:
    """True if any Motivo (decimal) count exceeds int64 — the regime
    where the paper's CC fails with 64-bit counters (dash in tables)."""
    for h, df in motivo_tables.levels.items():
        mx = df.agg(F.max(F.col("cnt")).alias("m")).collect()[0]["m"]
        if mx is not None and int(mx) > INT64_MAX:
            return True
    return False
