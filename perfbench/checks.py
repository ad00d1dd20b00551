"""Output checks for one benchmark iteration; none of this is timed.

- The count tables are recomputed by an independent engine: Eq. 1's
  level join re-executed in DuckDB with exact HUGEINT counters over the
  same coloring. Per-level rows, ``total_treelets()`` and
  ``shape_totals()`` must equal the reference exactly.
- Sampling: the hits must add up to the sample budget, and every hit
  class must be the canonical code of a connected k-graphlet.
- AGS: the ℓ1 distance between estimated and exact graphlet frequencies
  must be at most 5 % (the paper's "< 5 %"). Exact counts come from
  ``exactcount.esu``; for a full-size analog they are read from the
  committed ``truth/`` file when the graph's fingerprint matches it.
"""
from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import duckdb
import pandas as pd

TRUTH_DIR = Path(__file__).resolve().parent / "truth"
L1_LIMIT = 0.05


def reference_levels(graph, colors, k: int, temp_dir: Path) -> dict[int, pd.DataFrame]:
    """0-rooted colored-treelet count tables (v, t, c, cnt) per level."""
    from repro.core import treelet as tl

    e = graph.edge_array
    edges = pd.DataFrame(
        {"src": list(e[:, 0]) + list(e[:, 1]), "dst": list(e[:, 1]) + list(e[:, 0])}
    )
    con = duckdb.connect(
        config={"threads": 2, "memory_limit": "1GB", "temp_directory": str(temp_dir)}
    )
    try:
        con.register("edges", edges)
        con.register("lvl1_in", pd.DataFrame({"v": range(graph.n), "col": colors.astype("int64")}))
        con.execute(
            "CREATE TABLE lvl1 AS SELECT v::BIGINT AS v, 0 AS t, "
            "(1::BIGINT << col) AS c, 1::HUGEINT AS cnt FROM lvl1_in"
        )
        con.execute("CREATE TABLE color0 AS SELECT v FROM lvl1_in WHERE col = 0")
        merges = pd.DataFrame(
            [(sl, sr, a, b, m, beta) for sl, sr, a, b, m, beta in tl.merge_table(k)],
            columns=["sl", "sr", "tl", "tr", "tm", "beta"],
        )
        con.register("merges", merges)
        for h in range(2, k + 1):
            parts = []
            for sl in range(1, h):
                left = f"lvl{sl}"
                if h == k:
                    left = f"(SELECT * FROM lvl{sl} WHERE v IN (SELECT v FROM color0))"
                parts.append(
                    f"SELECT l.v, m.tm AS t, l.c | r.c AS c, l.cnt * r.cnt AS prod, m.beta "
                    f"FROM {left} l JOIN merges m ON m.sl = {sl} AND m.sr = {h - sl} "
                    f"AND l.t = m.tl JOIN edges e ON e.src = l.v "
                    f"JOIN lvl{h - sl} r ON r.v = e.dst AND r.t = m.tr "
                    f"WHERE l.c & r.c = 0"
                )
            con.execute(
                f"CREATE TABLE lvl{h} AS SELECT v, t, c, sum(prod) AS pairsum, "
                f"max(beta) AS beta FROM ({' UNION ALL '.join(parts)}) GROUP BY v, t, c"
            )
            bad = con.execute(f"SELECT count(*) FROM lvl{h} WHERE pairsum % beta <> 0").fetchone()[0]
            if bad:
                raise AssertionError(f"reference level {h}: {bad} sums not divisible by beta")
            con.execute(f"ALTER TABLE lvl{h} ADD COLUMN cnt HUGEINT")
            con.execute(f"UPDATE lvl{h} SET cnt = pairsum // beta")
        return {
            h: con.execute(f"SELECT v, t, c, cnt::VARCHAR AS cnt FROM lvl{h}").fetchdf()
            for h in range(1, k + 1)
        }
    finally:
        con.close()


def check_tables(tables, temp_dir: Path) -> list[str]:
    """Exact per-level rows, total_treelets() and shape_totals()."""
    from repro.core import treelet as tl

    k = tables.k
    ref = reference_levels(tables.graph, tables.colors, k, temp_dir)
    errors = []
    for h in range(1, k + 1):
        got = tables.stats.rows_per_level.get(h)
        if got != len(ref[h]):
            errors.append(f"level {h}: {got} rows, reference {len(ref[h])}")
    top = ref[k].assign(cnt=ref[k]["cnt"].map(int))
    want_total = int(top["cnt"].sum())
    got_total = tables.total_treelets()
    if got_total != want_total:
        errors.append(f"total_treelets {got_total}, reference {want_total}")
    um = tl.unrooted_map(k)
    want_shapes = {u: 0 for u in tl.unrooted_shapes(k)}
    for t, cnt in zip(top["t"], top["cnt"]):
        want_shapes[um[int(t)]] += cnt
    got_shapes = tables.shape_totals()
    if got_shapes != want_shapes:
        errors.append(f"shape_totals {got_shapes}, reference {want_shapes}")
    return errors


def check_hits(hits: dict[int, int], budget: int, k: int) -> list[str]:
    """Hits add up to the budget; every class is a connected k-graphlet."""
    from repro.core import graphlet as gl

    errors = []
    if sum(hits.values()) != budget:
        errors.append(f"hits sum to {sum(hits.values())}, budget {budget}")
    for code in hits:
        if not gl.is_connected(code, k) or gl.canonical(code, k) != code:
            errors.append(f"hit class {code} is not a canonical connected {k}-graphlet")
    return errors


def check_l1(estimates: dict[int, float], truth: dict[int, int]) -> list[str]:
    from repro.core import estimators

    l1 = estimators.l1_error(estimates, truth)
    return [] if l1 <= L1_LIMIT else [f"l1 error {l1:.4f} > {L1_LIMIT}"]


def fingerprint(graph) -> str:
    return hashlib.sha256(graph.edge_array.astype("int64").tobytes()).hexdigest()


def truth_path(name: str, k: int) -> Path:
    return TRUTH_DIR / f"{name}-k{k}.json"


def exact_counts(spark, graph, k: int) -> tuple[dict[int, int], float]:
    """Exact k-graphlet counts and the seconds spent computing them (0
    when the committed truth file matches the graph)."""
    path = truth_path(graph.name, k)
    if path.exists():
        data = json.loads(path.read_text())
        if data["fingerprint"] == fingerprint(graph):
            return {int(c): int(n) for c, n in data["counts"].items()}, 0.0
    from repro.exactcount import esu

    t0 = time.perf_counter()
    counts = esu.esu_counts(spark, graph, k)
    return counts, time.perf_counter() - t0


def write_truth(spark, graph, k: int) -> Path:
    """Compute ``graph``'s exact counts with ESU and commit-ready JSON."""
    from repro.exactcount import esu

    counts = esu.esu_counts(spark, graph, k)
    path = truth_path(graph.name, k)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "graph": graph.name,
                "k": k,
                "n": graph.n,
                "m": graph.m,
                "fingerprint": fingerprint(graph),
                "counts": {str(c): n for c, n in sorted(counts.items())},
            },
            indent=1,
        )
        + "\n"
    )
    return path


if __name__ == "__main__":
    # Regenerate a truth file:  python3 perfbench/checks.py yelp 4
    import argparse
    import shutil
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import session

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dataset")
    ap.add_argument("k", type=int)
    args = ap.parse_args()
    work = session.ROOT / ".perfbench" / "truth"
    session.configure(work)
    from repro.graphs import datasets

    spark = session.start()
    try:
        print(write_truth(spark, datasets.load(args.dataset), args.k))
    finally:
        session.shutdown(spark)
        shutil.rmtree(work, ignore_errors=True)
