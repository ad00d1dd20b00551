"""Motivo's build-up phase as a Catalyst dataflow (paper §2.1, §3.1–3.3).

The treelet count table ``c(T_C, v)`` is computed level by level with
Eq. 1: a size-``h`` colored rooted treelet splits uniquely into its
first root-child subtree ``T''`` and the rest ``T'``, so

    level_h = (L ⋈ merge-table_h) ⋈ edges ⋈ L,   L = level_1 ∪ … ∪ level_{h-1}

with color-set disjointness as a bitwise filter and a final division by
β_T (each treelet copy is produced once per root-child subtree
isomorphic to T''). Treelet encodings are size-unique and every ``T``
decomposes uniquely, so :func:`level_step` runs one join query per
level over the union of the lower levels — the broadcast merge table
(≤ 115 rows for k ≤ 8) picks the (T', T'') pairs of every size split at
once, with no per-size branch or union of aggregates. This is the
succinct-treelet payoff: CC's per-pair recursive check-and-merge
becomes a native hash-join lookup plus integer bit-ops, entirely inside
Catalyst/Tungsten, with no per-row Python.

While a build runs, its shuffles are as wide as the cores
(:func:`core_sized_shuffles`): a level holds at most tens of thousands
of rows here, and at a wider setting every map task writes one shuffle
partition per reduce slot, which AQE's coalescing cannot take back.

Motivo specifics reproduced here:

- **128-bit counters** → ``DecimalType(38, 0)`` columns (exact integer
  arithmetic beyond int64, like Motivo's __int128; the CC baseline in
  ``baseline.py`` uses 64-bit longs and can overflow, as CC does).
- **0-rooting** (§3.2): at the final level only color-0 roots are kept,
  so every colorful k-treelet copy is stored exactly once.
- **Greedy flushing + memory-mapped reads** (§3.1, §3.3): with
  ``flush_dir`` set, each completed level is written to parquet and
  re-read lazily, so the full table never resides in executor memory;
  without it levels are persisted in memory (the CC regime).
"""
from __future__ import annotations

import functools
import os
import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import DecimalType

from ..graphs.generators import Graph
from . import coloring, treelet as tl

#: Decimal(38,0) — the reproduction's "128-bit counter".
COUNT_TYPE = DecimalType(38, 0)


@dataclass
class BuildStats:
    """Wall-clock and size accounting for one build-up run."""

    seconds_per_level: dict[int, float] = field(default_factory=dict)
    rows_per_level: dict[int, int] = field(default_factory=dict)
    bytes_per_level: dict[int, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_per_level.values())

    @property
    def total_rows(self) -> int:
        return sum(self.rows_per_level.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_per_level.values())


@dataclass
class CountTables:
    """The abstract "urn": per-level colored-treelet count DataFrames.

    ``levels[h]`` has columns ``v`` (root vertex), ``t`` (succinct rooted
    treelet encoding), ``c`` (color-set bitmask), ``cnt`` (Decimal count
    of colorful copies of ``(t, c)`` rooted at ``v``).
    """

    spark: SparkSession
    graph: Graph
    k: int
    colors: np.ndarray
    levels: dict[int, DataFrame]
    zero_rooting: bool
    lam: float | None
    seed: int
    stats: BuildStats
    _root_pdf: pd.DataFrame | None = field(default=None, init=False, repr=False)

    @property
    def p_colorful(self) -> float:
        return coloring.p_colorful(self.k, self.lam)

    def root_pdf(self) -> pd.DataFrame:
        """Final-level table collected to the driver for root sampling:
        columns v, t, cnt (python int). Small: one row per (color-0
        vertex, k-treelet shape) — the color set is always the full mask.
        Collected once per tables object; each call returns a copy.
        """
        if self._root_pdf is None:
            pdf = self.levels[self.k].select("v", "t", "cnt").toPandas()
            pdf["cnt"] = pdf["cnt"].map(int)
            self._root_pdf = pdf
        return self._root_pdf.copy()

    def total_treelets(self) -> int:
        """t of §2.2: total number of colorful k-treelet copies in G."""
        total = int(self.root_pdf()["cnt"].sum())
        return total if self.zero_rooting else total // self.k

    def shape_totals(self) -> dict[int, int]:
        """r_j of §4: colorful copies per *unrooted* k-treelet shape."""
        um = tl.unrooted_map(self.k)
        pdf = self.root_pdf()
        totals: dict[int, int] = {u: 0 for u in tl.unrooted_shapes(self.k)}
        for t, cnt in pdf.groupby("t")["cnt"].sum().items():
            totals[um[int(t)]] += int(cnt)
        if not self.zero_rooting:
            totals = {u: c // self.k for u, c in totals.items()}
        return totals


@contextmanager
def core_sized_shuffles(spark: SparkSession) -> Iterator[None]:
    """Run the block with ``spark.sql.shuffle.partitions`` lowered to
    ``min(session value, defaultParallelism)``; the session's value is
    restored on exit, also when the block raises.

    AQE coalesces the reduce side of a shuffle, but every map task still
    writes one partition per ``spark.sql.shuffle.partitions``. This is a
    session setting and not ``repartition(n, …)``: a join that needs a
    hash distribution re-plans a user repartition at the session's width.
    """
    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    spark.conf.set(key, str(min(int(before), spark.sparkContext.defaultParallelism)))
    try:
        yield
    finally:
        spark.conf.set(key, before)


def merge_frame(spark: SparkSession, k: int) -> DataFrame:
    """The merge table of :func:`treelet.merge_table` as a local
    DataFrame: int columns ``h`` (= |T'| + |T''|), ``tl``, ``tr``,
    ``tm``, ``beta``. Built once per build; :func:`level_step` selects
    its level's rows."""
    pdf = pd.DataFrame(
        [(size_l + size_r, *row) for size_l, size_r, *row in tl.merge_table(k)],
        columns=["h", "tl", "tr", "tm", "beta"],
    )
    return spark.createDataFrame(pdf.astype("int32"))


def level_step(
    lower_levels: Mapping[int, DataFrame],
    edges: DataFrame,
    merges: DataFrame,
    h: int,
    *,
    roots: DataFrame | None = None,
) -> DataFrame:
    """Eq. 1 for level ``h`` as one join query (unmaterialized).

    ``lower_levels[j]`` (j = 1..h-1) are count tables (v, t, c, cnt);
    ``edges`` is the symmetric (src, dst) edge table; ``merges`` is
    :func:`merge_frame`. With ``roots`` (column v) set, only those
    vertices root a level-``h`` treelet (0-rooting).
    """
    below = functools.reduce(DataFrame.unionByName, (lower_levels[j] for j in range(1, h)))
    pairs = F.broadcast(merges.where(F.col("h") == h).drop("h"))
    left = below
    if roots is not None:
        left = left.join(F.broadcast(roots), on="v", how="semi")
    # T'' candidates: only rows whose shape is some merge's right side
    right = below.join(pairs, below["t"] == pairs["tr"], how="semi")
    pairsums = (
        left.alias("l")
        .join(pairs, F.col("l.t") == F.col("tl"))
        .join(edges.alias("e"), F.col("l.v") == F.col("e.src"))
        .join(
            right.alias("r"),
            (F.col("e.dst") == F.col("r.v")) & (F.col("r.t") == F.col("tr")),
        )
        .where(F.col("l.c").bitwiseAND(F.col("r.c")) == 0)
        .groupBy(
            F.col("l.v").alias("v"),
            F.col("tm").alias("t"),
            F.col("l.c").bitwiseOR(F.col("r.c")).alias("c"),
        )
        .agg(
            F.sum(F.col("l.cnt") * F.col("r.cnt")).alias("pairsum"),
            F.max("beta").alias("beta"),
        )
    )
    # Each copy of T was produced once per root-child subtree
    # isomorphic to T'' — divide by β_T (exact: pairsum ≡ 0 mod β).
    return pairsums.select(
        "v", "t", "c", (F.col("pairsum") / F.col("beta")).cast(COUNT_TYPE).alias("cnt")
    )


def build_tables(
    spark: SparkSession,
    graph: Graph,
    k: int,
    *,
    seed: int = 0,
    lam: float | None = None,
    zero_rooting: bool = True,
    flush_dir: str | None = None,
) -> CountTables:
    """Run the build-up phase and return the treelet count tables."""
    colors = coloring.assign_colors(graph.n, k, seed=seed, lam=lam)
    stats = BuildStats()
    # The input graph lives in memory in both CC and Motivo (§3.3), so the
    # edge view is persisted for the build regardless of the flushing mode.
    edges = graph.edges_df(spark).persist()
    levels: dict[int, DataFrame] = {}
    try:
        with core_sized_shuffles(spark):
            edges.count()
            # Level 1: the trivial treelet at every vertex, colored {c_v}.
            lvl1_pdf = pd.DataFrame(
                {"v": np.arange(graph.n), "t": np.int32(tl.SINGLETON), "c": (1 << colors).astype(np.int64)}
            )
            t0 = time.monotonic()
            lvl1 = spark.createDataFrame(lvl1_pdf).withColumn("cnt", F.lit(1).cast(COUNT_TYPE))
            levels[1] = _materialize(spark, lvl1, 1, flush_dir, stats)
            stats.seconds_per_level[1] = time.monotonic() - t0

            merges = merge_frame(spark, k)
            color0 = None
            if zero_rooting:
                color0 = spark.createDataFrame(
                    pd.DataFrame({"v": np.flatnonzero(colors == 0).astype(np.int64)})
                )
            for h in range(2, k + 1):
                t0 = time.monotonic()
                lvl = level_step(levels, edges, merges, h, roots=color0 if h == k else None)
                levels[h] = _materialize(spark, lvl, h, flush_dir, stats)
                stats.seconds_per_level[h] = time.monotonic() - t0
    finally:
        edges.unpersist()

    return CountTables(
        spark=spark,
        graph=graph,
        k=k,
        colors=colors,
        levels=levels,
        zero_rooting=zero_rooting,
        lam=lam,
        seed=seed,
        stats=stats,
    )


def _materialize(
    spark: SparkSession, df: DataFrame, h: int, flush_dir: str | None, stats: BuildStats
) -> DataFrame:
    """Greedy flushing (parquet + lazy re-read) or in-memory persist."""
    if flush_dir is not None:
        path = os.path.join(flush_dir, f"level_{h:02d}.parquet")
        df.write.mode("overwrite").parquet(path)
        # the schema is known: passing it skips a footer-reading job
        out = spark.read.schema(df.schema).parquet(path)
        stats.rows_per_level[h] = out.count()
        stats.bytes_per_level[h] = _dir_bytes(path)
        return out
    out = df.persist()
    stats.rows_per_level[h] = out.count()
    return out


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total
