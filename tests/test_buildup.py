"""Correctness tests for the color-coding build-up phase (paper §2.1, §3).

The central check: the Spark DataFrame DP must produce exactly the
per-vertex colorful rooted-treelet counts that exhaustive enumeration
produces, for every (vertex, rooted shape, color set) triple.
"""
import math
from decimal import Decimal

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import IntegerType, LongType, StructField, StructType

from repro.core import baseline, buildup, coloring, treelet as tl
from repro.exactcount import esu
from repro.graphs import generators as gen
from repro.oracle import assert_equivalent


def _collect_counts(tables: buildup.CountTables, h: int) -> dict[tuple[int, int, int], int]:
    pdf = tables.levels[h].toPandas()
    return {
        (int(r.v), int(r.t), int(r.c)): int(r.cnt) for r in pdf.itertuples() if int(r.cnt) != 0
    }


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [3, 4])
def test_dp_matches_bruteforce_er(spark, seed, k):
    """Every c(T_C, v) from the Spark DP equals the brute-force count."""
    g = gen.er_graph(14, 26, seed=seed)
    tables = buildup.build_tables(spark, g, k, seed=seed + 10, zero_rooting=False)
    colors = tables.colors
    brute = esu.brute_force_rooted_treelet_counts(g.adj, colors, k)
    got = {}
    for h in range(1, k + 1):
        got.update(_collect_counts(tables, h))
    assert got == {key: c for key, c in brute.items() if c != 0}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_dp_on_path_graph(spark, k):
    """On a path, every k-treelet is a k-path; totals have a closed form:
    each of the n-k+1 path copies is colorful iff its k colors differ."""
    n = 16
    g = gen.path_graph(n)
    tables = buildup.build_tables(spark, g, k, seed=3, zero_rooting=False)
    colors = tables.colors
    expected_copies = 0
    for start in range(n - k + 1):
        cs = colors[start : start + k]
        if len(set(cs.tolist())) == k:
            expected_copies += 1
    # zero_rooting=False counts every copy once per rooting (k times).
    total = sum(_collect_counts(tables, k).values())
    assert total == k * expected_copies


def test_zero_rooting_counts_each_copy_once(spark):
    g = gen.er_graph(30, 80, seed=7)
    k = 4
    t_root = buildup.build_tables(spark, g, k, seed=5, zero_rooting=True)
    t_free = buildup.build_tables(spark, g, k, seed=5, zero_rooting=False)
    assert t_free.total_treelets() == t_root.total_treelets()
    free_sum = sum(_collect_counts(t_free, k).values())
    root_sum = sum(_collect_counts(t_root, k).values())
    assert free_sum == k * root_sum
    # 0-rooted entries live only at color-0 vertices.
    for (v, _, _), _ in _collect_counts(t_root, k).items():
        assert t_root.colors[v] == 0


def test_zero_rooting_shrinks_final_level(spark):
    """The paper reports ~1/k final-level records under 0-rooting."""
    g = gen.er_graph(60, 200, seed=8)
    k = 4
    rows_root = buildup.build_tables(spark, g, k, seed=6, zero_rooting=True).stats.rows_per_level[k]
    rows_free = buildup.build_tables(spark, g, k, seed=6, zero_rooting=False).stats.rows_per_level[k]
    assert rows_root < rows_free
    assert rows_root < 0.6 * rows_free  # roughly 1/k of the rootings survive


@pytest.mark.parametrize("k", [3, 4])
def test_dp_level_matches_duckdb_oracle(spark, k):
    """The level-k aggregation re-expressed in SQL over the level tables,
    the edge table and the merge table gives identical counts (catches
    join/filter/groupBy bugs independently of the DP derivation)."""
    g = gen.er_graph(20, 50, seed=9)
    tables = buildup.build_tables(spark, g, k, seed=11, zero_rooting=False)
    merge_pdf = pd.DataFrame(
        [r for r in tl.merge_table(k) if r[0] + r[1] == k],
        columns=["size_l", "size_r", "tl", "tr", "tm", "beta"],
    )
    level_pdfs = {
        h: tables.levels[h].toPandas().assign(cnt=lambda d: d.cnt.map(int).astype("int64"))
        for h in range(1, k + 1)
    }
    edges_pdf = pd.DataFrame({"src": np.r_[g.edge_array[:, 0], g.edge_array[:, 1]],
                              "dst": np.r_[g.edge_array[:, 1], g.edge_array[:, 0]]})
    union_sql = "\nUNION ALL\n".join(
        f"""
        SELECT l.v AS v, m.tm AS t, (l.c | r.c) AS c,
               CAST(SUM(l.cnt * r.cnt) / MAX(m.beta) AS BIGINT) AS cnt
        FROM lvl{size_l} l
        JOIN mergetab m ON l.t = m.tl AND m.size_l = {size_l} AND m.size_r = {size_r}
        JOIN edges e ON l.v = e.src
        JOIN lvl{size_r} r ON e.dst = r.v AND r.t = m.tr
        WHERE (l.c & r.c) = 0
        GROUP BY l.v, m.tm, (l.c | r.c)
        """
        for size_l, size_r in sorted({(r.size_l, r.size_r) for r in merge_pdf.itertuples()})
    )
    spark_level = tables.levels[k].select(
        "v", "t", "c", tables.levels[k].cnt.cast("long").alias("cnt")
    )
    assert_equivalent(
        spark_level,
        union_sql,
        edges=edges_pdf,
        mergetab=merge_pdf,
        **{f"lvl{h}": level_pdfs[h] for h in range(1, k)},
    )


LEVEL_SCHEMA = StructType(
    [
        StructField("v", LongType()),
        StructField("t", IntegerType()),
        StructField("c", LongType()),
        StructField("cnt", buildup.COUNT_TYPE),
    ]
)


@pytest.mark.parametrize("rooted", [False, True])
def test_level_step_matches_duckdb_oracle(spark, rooted):
    """level_step on hand-built lower levels whose counts lie far beyond
    int64 equals the Eq. 1 join in DuckDB with exact HUGEINT counters.

    The lower levels are brute-force counts with level j scaled by
    S**j: Eq. 1 is bilinear, so level k comes out scaled by S**k and
    every β division stays exact. Products reach ~10^28, below the
    ~10^32 ceiling of the Decimal(38,6) quotient.
    """
    k, scale = 4, 10**6
    g = gen.er_graph(14, 30, seed=21)
    colors = coloring.assign_colors(g.n, k, seed=22)
    brute = esu.brute_force_rooted_treelet_counts(g.adj, colors, k)
    rows = {h: [] for h in range(1, k)}
    for (v, t, c), cnt in brute.items():
        h = tl.size(t)
        if h < k and cnt:
            rows[h].append((v, t, c, cnt * scale**h))
    lower = {
        h: spark.createDataFrame([(v, t, c, Decimal(n)) for v, t, c, n in r], LEVEL_SCHEMA)
        for h, r in rows.items()
    }
    roots_pdf = pd.DataFrame({"v": np.flatnonzero(colors == 0).astype(np.int64)})
    level = buildup.level_step(
        lower,
        g.edges_df(spark),
        buildup.merge_frame(spark, k),
        k,
        roots=spark.createDataFrame(roots_pdf) if rooted else None,
    )
    level = level.select("v", "t", "c", level.cnt.cast("string").alias("cnt"))
    assert max(int(r.cnt) for r in level.collect()) > 10**20 > baseline.INT64_MAX

    merge_pdf = pd.DataFrame(
        [r for r in tl.merge_table(k) if r[0] + r[1] == k],
        columns=["size_l", "size_r", "tl", "tr", "tm", "beta"],
    )
    edges_pdf = pd.DataFrame({"src": np.r_[g.edge_array[:, 0], g.edge_array[:, 1]],
                              "dst": np.r_[g.edge_array[:, 1], g.edge_array[:, 0]]})
    root_filter = "AND l.v IN (SELECT v FROM roots)" if rooted else ""
    union_sql = "\nUNION ALL\n".join(
        f"""
        SELECT l.v AS v, m.tm AS t, (l.c | r.c) AS c,
               SUM(l.cnt * r.cnt) AS pairsum, MAX(m.beta) AS beta
        FROM lvl{size_l} l
        JOIN mergetab m ON l.t = m.tl AND m.size_l = {size_l} AND m.size_r = {size_r}
        JOIN edges e ON l.v = e.src
        JOIN lvl{size_r} r ON e.dst = r.v AND r.t = m.tr
        WHERE (l.c & r.c) = 0 {root_filter}
        GROUP BY l.v, m.tm, (l.c | r.c)
        """
        for size_l, size_r in sorted({(r.size_l, r.size_r) for r in merge_pdf.itertuples()})
    )
    lvl_ctes = ", ".join(
        f"lvl{h} AS (SELECT v, t, c, CAST(cnt AS HUGEINT) AS cnt FROM lvl{h}_in)"
        for h in range(1, k)
    )
    sql = f"""
        WITH {lvl_ctes}
        SELECT v, t, c, CAST(pairsum // beta AS VARCHAR) AS cnt FROM ({union_sql})
    """
    assert_equivalent(
        level,
        sql,
        edges=edges_pdf,
        mergetab=merge_pdf,
        roots=roots_pdf,
        **{
            f"lvl{h}_in": pd.DataFrame(r, columns=["v", "t", "c", "cnt"]).astype({"cnt": str})
            for h, r in rows.items()
        },
    )


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def test_builds_restore_shuffle_partitions(spark, monkeypatch):
    """Both build-ups size their shuffles to the cores while they run and
    leave the session's shuffle width as they found it — also when a
    level query raises."""
    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    width = str(min(int(before), spark.sparkContext.defaultParallelism))
    g = gen.er_graph(16, 30, seed=23)
    seen = []
    real_step = buildup.level_step

    def recording_step(*args, **kwargs):
        seen.append(spark.conf.get(key))
        return real_step(*args, **kwargs)

    monkeypatch.setattr(buildup, "level_step", recording_step)
    buildup.build_tables(spark, g, 3, seed=24)
    assert seen == [width, width]
    baseline.build_tables_cc(spark, g, 3, seed=24)
    assert spark.conf.get(key) == before

    def failing(*args, **kwargs):
        raise RuntimeError("level query failed")

    monkeypatch.setattr(buildup, "level_step", failing)
    with pytest.raises(RuntimeError, match="level query failed"):
        buildup.build_tables(spark, g, 3, seed=24)
    assert spark.conf.get(key) == before
    # CC's levels h >= 3 union one join per size split
    monkeypatch.setattr(type(spark.range(1)), "unionByName", failing)
    with pytest.raises(RuntimeError, match="level query failed"):
        baseline.build_tables_cc(spark, g, 3, seed=24)
    assert spark.conf.get(key) == before


def test_builds_release_their_edge_table(spark, tmp_path):
    """The edge table is cached only while a build runs: a flushed build
    leaves nothing cached, a CC build only its k in-memory levels."""
    g = gen.er_graph(16, 30, seed=25)
    before = _persistent_rdds(spark)
    buildup.build_tables(spark, g, 3, seed=26, flush_dir=str(tmp_path / "tables"))
    assert _persistent_rdds(spark) == before
    levels, _, _ = baseline.build_tables_cc(spark, g, 3, seed=26)
    assert _persistent_rdds(spark) == before + 3
    for df in levels.values():
        df.unpersist()


def test_root_pdf_is_collected_once(spark):
    """root_pdf() collects the k-level table on its first call only, and
    hands every caller its own copy."""
    g = gen.er_graph(30, 90, seed=27)
    tables = buildup.build_tables(spark, g, 4, seed=28)
    first = tables.root_pdf()
    first["cnt"] = 0
    tables.levels = {}  # a second collect would now fail
    again = tables.root_pdf()
    assert (again["cnt"] > 0).all()
    assert tables.total_treelets() == int(again["cnt"].sum())
    assert sum(tables.shape_totals().values()) == tables.total_treelets()


def test_flushed_equals_inmemory(spark, tmp_path):
    """Greedy flushing to parquet must not change any count."""
    g = gen.er_graph(25, 60, seed=12)
    k = 4
    mem = buildup.build_tables(spark, g, k, seed=13)
    disk = buildup.build_tables(spark, g, k, seed=13, flush_dir=str(tmp_path / "tables"))
    for h in range(1, k + 1):
        assert _collect_counts(mem, h) == _collect_counts(disk, h)
    assert disk.stats.total_bytes > 0


def test_expected_colorful_fraction(seed=0):
    """E[c_i] = p_k · g_i (§2.2): averaged over many colorings, the
    colorful fraction of triangle copies approaches k!/k^k."""
    k = 3
    g = gen.er_graph(40, 150, seed=2)
    triangles = [
        nodes
        for nodes in _triangles(g)
    ]
    assert len(triangles) > 10
    rng_seeds = range(400)
    fracs = []
    for s in rng_seeds:
        colors = coloring.assign_colors(g.n, k, seed=s)
        colorful = sum(
            1 for (a, b, c) in triangles if len({colors[a], colors[b], colors[c]}) == 3
        )
        fracs.append(colorful / len(triangles))
    assert abs(np.mean(fracs) - coloring.p_colorful(k)) < 0.01


def _triangles(g: gen.Graph):
    for a, b in g.edge_array:
        common = np.intersect1d(g.adj[int(a)], g.adj[int(b)])
        for c in common[common > b]:
            yield (int(a), int(b), int(c))


def test_root_pdf_and_totals(spark):
    g = gen.er_graph(30, 90, seed=14)
    k = 4
    tables = buildup.build_tables(spark, g, k, seed=15)
    pdf = tables.root_pdf()
    assert (pdf["cnt"] > 0).all()
    assert tables.total_treelets() == int(pdf["cnt"].sum())
    shape_totals = tables.shape_totals()
    assert sum(shape_totals.values()) == tables.total_treelets()
    assert set(shape_totals) == set(tl.unrooted_shapes(k))


def test_counts_are_decimal_38(spark):
    """Counters are Decimal(38,0) — the 128-bit-counter reproduction."""
    g = gen.er_graph(20, 40, seed=16)
    tables = buildup.build_tables(spark, g, 3, seed=17)
    field = dict(tables.levels[3].dtypes)["cnt"]
    assert field == "decimal(38,0)"


def test_star_counts_match_binomials(spark):
    """On the n-star with a colorful-friendly coloring, level-h star
    counts at the hub follow binomial sums over leaf colors; we verify
    against brute force to pin down β handling (β = h-1 for stars)."""
    g = gen.star_graph(12)
    k = 4
    tables = buildup.build_tables(spark, g, k, seed=18, zero_rooting=False)
    brute = esu.brute_force_rooted_treelet_counts(g.adj, tables.colors, k)
    got = {}
    for h in range(1, k + 1):
        got.update(_collect_counts(tables, h))
    assert got == {key: c for key, c in brute.items() if c != 0}


def test_biased_coloring_probability():
    for k in (3, 4, 5):
        assert coloring.p_colorful(k) == pytest.approx(math.factorial(k) / k**k)
        lam = 0.05
        assert coloring.p_colorful(k, lam) == pytest.approx(
            math.factorial(k) * lam ** (k - 1) * (1 - (k - 1) * lam)
        )
        assert coloring.p_colorful(k, lam) < coloring.p_colorful(k)


def test_biased_coloring_shrinks_tables(spark):
    """§3.4: biased coloring must reduce the number of stored pairs."""
    g = gen.ba_graph(300, 4, seed=19)
    k = 4
    uni = buildup.build_tables(spark, g, k, seed=20)
    bia = buildup.build_tables(spark, g, k, seed=20, lam=0.08)
    assert bia.stats.total_rows < uni.stats.total_rows
    # heavy color 0 dominates: most vertices still get counted at level 1
    assert (bia.colors == 0).mean() > 0.5


def test_biased_coloring_validation():
    with pytest.raises(ValueError):
        coloring.assign_colors(10, 5, seed=0, lam=0.3)  # (k-1)λ >= 1
