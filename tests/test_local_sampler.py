"""Tests for the CC-style per-sample sampler, neighbor buffering (§3.2)
and the per-shape urns AGS draws from (§4)."""
import itertools

import numpy as np
import pytest

from repro.core import (
    buildup,
    estimators as est,
    graphlet as gl,
    local_sampler as ls,
    spanning as sp,
    treelet as tl,
)
from repro.exactcount import esu
from repro.graphs import generators as gen


@pytest.fixture(scope="module")
def hub_tables(spark):
    # one hub of degree ~200 over a sparse background: the BerkStan regime
    g = gen.hub_graph(400, 900, 1, 200, seed=30)
    return buildup.build_tables(spark, g, 4, seed=31)


@pytest.fixture(scope="module")
def er_tables_local(spark):
    g = gen.er_graph(60, 180, seed=32)
    return buildup.build_tables(spark, g, 4, seed=33)


def tree_shape(nodes, edges):
    """Unrooted canonical shape of the tree ``edges`` spans on ``nodes``."""
    index = {v: i for i, v in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for a, b in edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    return min(tl.encode_rooted(adj, i) for i in range(len(nodes)))


def test_local_sampler_produces_valid_colorful_treelets(er_tables_local):
    """Every sample: k distinct nodes, k-1 real tree edges, colorful
    colors, and the tree's unrooted shape equals the drawn root shape —
    from the full urn and from every per-shape urn."""
    t = er_tables_local
    k = t.k
    um = tl.unrooted_map(k)
    s = ls.LocalSampler(t, seed=1)
    shapes = [None] + [j for j, r in t.shape_totals().items() if r > 0]
    assert len(shapes) == 3
    for shape in shapes:
        for _ in range(100):
            t0, nodes, edges = s.sample_one(shape)
            assert len(nodes) == k and len(set(nodes)) == k
            assert len(edges) == k - 1
            assert all(t.graph.has_edge(a, b) for a, b in edges)
            assert {v for e in edges for v in e} == set(nodes)
            assert len({int(t.colors[v]) for v in nodes}) == k
            assert tree_shape(nodes, edges) == um[t0]
            if shape is not None:
                assert um[t0] == shape


def test_star_urn_yields_only_stars(er_tables_local):
    """AGS's sample(T): the star urn unfolds into stars only."""
    k = er_tables_local.k
    star_u = tl.unroot(tl.star_rooted(k))
    s = ls.LocalSampler(er_tables_local, seed=9)
    for _ in range(100):
        _, nodes, edges = s.sample_one(star_u)
        degs = {}
        for a, b in edges:
            degs[a] = degs.get(a, 0) + 1
            degs[b] = degs.get(b, 0) + 1
        assert sorted(degs.values()) == [1] * (k - 1) + [k - 1]


def test_shape_urn_uniform_over_copies(spark):
    """sample(T_j) hits class i with probability (Σ over colorful copies
    of class i of σ_ij) / r_j — the identity AGS's weights rest on."""
    k = 4
    g = gen.er_graph(12, 36, seed=23)  # dense enough for both shapes
    tables = buildup.build_tables(spark, g, k, seed=24)
    colors = tables.colors
    trees: dict[int, dict[int, int]] = {}  # shape j -> class i -> Σ σ_ij
    for nodes in itertools.combinations(range(g.n), k):
        code = esu.induced_code(g.adj, list(nodes))
        if not gl.is_connected(code, k) or len({int(colors[v]) for v in nodes}) < k:
            continue
        canon = gl.canonical(code, k)
        for j, sigma in sp.spanning_profile(canon, k).items():
            trees.setdefault(j, {})
            trees[j][canon] = trees[j].get(canon, 0) + sigma
    r = tables.shape_totals()
    assert {j: sum(c.values()) for j, c in trees.items()} == {j: x for j, x in r.items() if x}
    assert len(trees) == 2, "fixture must hold copies of both 4-treelet shapes"
    s = ls.LocalSampler(tables, seed=6)
    n = 4000
    for j, by_class in trees.items():
        hits = s.sample_graphlets(n, shape=j)
        assert set(hits) <= set(by_class)
        for code, x in by_class.items():
            p = x / r[j]
            if p < 0.03:
                continue
            assert abs(hits.get(code, 0) / n - p) < 0.35 * p + 0.01


def test_empty_shape_urn_raises(spark):
    """A path has no stars: the star urn is empty and says so."""
    k = 4
    tables = buildup.build_tables(spark, gen.path_graph(200), k, seed=3)
    star_u = tl.unroot(tl.star_rooted(k))
    assert tables.shape_totals()[star_u] == 0 < tables.total_treelets()
    s = ls.LocalSampler(tables, seed=1)
    s.sample_one()
    with pytest.raises(ValueError, match="empty urn"):
        s.sample_one(star_u)


def test_no_colorful_treelet_raises(spark):
    """A path on k-1 nodes holds no k-treelet at all."""
    k = 4
    tables = buildup.build_tables(spark, gen.path_graph(k - 1), k, seed=3)
    with pytest.raises(ValueError, match="no colorful k-treelet"):
        ls.LocalSampler(tables, seed=1)


def test_local_estimates_match_exact(er_tables_local):
    s = ls.LocalSampler(er_tables_local, seed=2)
    hits = s.sample_graphlets(4000)
    estimates = est.naive_estimates(hits, 4000, er_tables_local)
    exact = esu.esu_counts_local(er_tables_local.graph.adj, er_tables_local.k)
    tot = sum(exact.values())
    for code, truth in exact.items():
        if truth / tot < 0.05:
            continue
        assert abs(est.err_h(estimates.get(code, 0.0), truth)) < 0.5


def test_local_matches_distributed_distribution(spark, er_tables_local):
    """The driver-side and Spark samplers draw from the same urn: their
    per-class hit frequencies agree within sampling noise."""
    from repro.core import sampler as dsampler

    n = 4000
    local_hits = ls.LocalSampler(er_tables_local, seed=3).sample_graphlets(n)
    dist_hits = dsampler.sample_graphlets(spark, er_tables_local, n, seed=4).hits
    keys = set(local_hits) | set(dist_hits)
    for code in keys:
        fl = local_hits.get(code, 0) / n
        fd = dist_hits.get(code, 0) / n
        if max(fl, fd) > 0.02:
            assert abs(fl - fd) < 0.3 * max(fl, fd) + 0.01


def test_buffering_preserves_distribution(hub_tables):
    n = 3000
    plain = ls.LocalSampler(hub_tables, seed=5).sample_graphlets(n)
    buffered = ls.LocalSampler(hub_tables, seed=5, buffer_threshold=100).sample_graphlets(n)
    keys = set(plain) | set(buffered)
    for code in keys:
        fp = plain.get(code, 0) / n
        fb = buffered.get(code, 0) / n
        if max(fp, fb) > 0.02:
            assert abs(fp - fb) < 0.3 * max(fp, fb) + 0.01


def test_buffering_reduces_hub_sweeps(hub_tables):
    """§3.2: buffering cuts neighbor sweeps dramatically on hub graphs."""
    n = 1500
    plain = ls.LocalSampler(hub_tables, seed=6)
    plain.sample_graphlets(n)
    buffered = ls.LocalSampler(hub_tables, seed=6, buffer_threshold=100)
    buffered.sample_graphlets(n)
    assert buffered.stats.buffer_hits > 0
    assert buffered.stats.swept_neighbors < 0.7 * plain.stats.swept_neighbors


def test_cc_mode_same_distribution_more_work(er_tables_local):
    n = 2000
    fast = ls.LocalSampler(er_tables_local, seed=7)
    cc = ls.LocalSampler(er_tables_local, seed=7, cc_mode=True)
    hf, hc = fast.sample_graphlets(n), cc.sample_graphlets(n)
    for code in set(hf) | set(hc):
        a, b = hf.get(code, 0) / n, hc.get(code, 0) / n
        if max(a, b) > 0.02:
            assert abs(a - b) < 0.3 * max(a, b) + 0.01


def test_root_draw_without_alias_matches_with_alias(er_tables_local):
    """Motivo mode's alias-method root draws and CC mode's binary search
    on the cumulative weights follow the same distribution."""
    n = 20_000
    with_alias = ls.LocalSampler(er_tables_local, seed=8)
    without = ls.LocalSampler(er_tables_local, seed=8, cc_mode=True)
    ra = [with_alias._draw_root() for _ in range(n)]
    rb = [without._draw_root() for _ in range(n)]
    fa = {}
    fb = {}
    for r in ra:
        fa[r] = fa.get(r, 0) + 1
    for r in rb:
        fb[r] = fb.get(r, 0) + 1
    common = [r for r in fa if fa[r] > n * 0.01]
    for r in common:
        assert abs(fa[r] - fb.get(r, 0)) < 0.25 * fa[r] + 20
