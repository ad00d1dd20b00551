"""Tests for the distributed sampling phase (paper §2.2).

Structural checks verify every sampled object is a genuine colorful
treelet copy of the claimed shape; statistical checks verify the
distribution (uniformity over the urn) and estimator accuracy against
exact ESU ground truth. Seeds are fixed; tolerances are generous.
"""
import numpy as np
import pytest

from repro.core import buildup, estimators as est, sampler, spanning as sp, treelet as tl
from repro.exactcount import esu
from repro.graphs import generators as gen


@pytest.fixture(scope="module")
def er_tables(spark):
    g = gen.er_graph(60, 180, seed=21)
    return buildup.build_tables(spark, g, 4, seed=22)


def test_draw_roots_distribution(er_tables):
    """Root draws follow the per-(v,t) count distribution."""
    pdf = er_tables.root_pdf()
    roots = sampler.draw_roots(er_tables, 30_000, seed=1)
    freq = roots.groupby(["v", "t"])["sid"].count()
    probs = pdf.set_index(["v", "t"])["cnt"] / pdf["cnt"].sum()
    joined = probs.to_frame("p").join(freq.rename("n")).fillna(0)
    # only check pairs with non-trivial mass
    heavy = joined[joined["p"] > 0.005]
    rel = (heavy["n"] / 30_000 - heavy["p"]).abs() / heavy["p"]
    assert rel.max() < 0.25


def test_unfolded_samples_are_valid_treelets(spark, er_tables):
    """Every sample: k distinct nodes, real tree edges, colorful colors,
    and the tree's unrooted shape equals the drawn root shape."""
    g = er_tables.graph
    k = er_tables.k
    roots = sampler.draw_roots(er_tables, 200, seed=2)
    out = sampler.unfold_treelets(spark, er_tables, roots, seed=3)
    um = tl.unrooted_map(k)
    for r in out.itertuples():
        nodes = r.nodes
        assert len(nodes) == k and len(set(nodes)) == k
        assert len(r.edges) == k - 1
        for a, b in r.edges:
            assert g.has_edge(a, b)
        colors = {int(er_tables.colors[v]) for v in nodes}
        assert len(colors) == k, "sampled treelet must be colorful"
        # rebuild the tree and check its unrooted canonical shape
        index = {v: i for i, v in enumerate(nodes)}
        adj = [[] for _ in nodes]
        for a, b in r.edges:
            adj[index[a]].append(index[b])
            adj[index[b]].append(index[a])
        shape = min(tl.encode_rooted(adj, i) for i in range(k))
        assert shape == um[int(r.t)]


def test_restricted_sampling_only_draws_requested_shape(spark, er_tables):
    """AGS's sample(T): restricting to the star shape yields only stars."""
    k = er_tables.k
    star_u = tl.unroot(tl.star_rooted(k))
    roots = sampler.draw_roots(er_tables, 100, seed=4, restrict_shapes={star_u})
    um = tl.unrooted_map(k)
    assert all(um[int(t)] == star_u for t in roots["t"])
    out = sampler.unfold_treelets(spark, er_tables, roots, seed=5)
    for r in out.itertuples():
        # the unfolded tree must be a star: one center of degree k-1
        degs = {}
        for a, b in r.edges:
            degs[a] = degs.get(a, 0) + 1
            degs[b] = degs.get(b, 0) + 1
        assert sorted(degs.values()) == [1] * (k - 1) + [k - 1]

@pytest.mark.parametrize("k", [3, 4])
def test_sampling_uniform_over_copies(spark, k):
    """On a tiny graph, each colorful treelet copy appears with roughly
    equal frequency: node-set frequencies proportional to the number of
    colorful spanning trees of each induced subgraph."""
    g = gen.er_graph(12, 24, seed=23)
    tables = buildup.build_tables(spark, g, k, seed=24)
    batch = sampler.sample_graphlets(spark, tables, 4000, seed=6)
    total = tables.total_treelets()
    # expected hits per class: (colorful spanning trees of class copies)/t
    colors = tables.colors
    exact = esu.esu_counts_local(g.adj, k)
    # count colorful copies per class explicitly
    import itertools

    colorful_trees = {}
    for nodes in itertools.combinations(range(g.n), k):
        code = esu.induced_code(g.adj, list(nodes))
        from repro.core import graphlet as gl

        if not gl.is_connected(code, k):
            continue
        if len({int(colors[v]) for v in nodes}) < k:
            continue
        canon = gl.canonical(code, k)
        colorful_trees[canon] = colorful_trees.get(canon, 0) + sp.num_spanning_trees(
            code, k
        )
    assert sum(colorful_trees.values()) == total
    for code, trees in colorful_trees.items():
        p = trees / total
        if p < 0.03:
            continue
        obs = batch.hits.get(code, 0) / batch.n_samples
        assert abs(obs - p) < 0.35 * p + 0.01


@pytest.mark.parametrize("k", [3, 4])
def test_naive_estimates_close_to_exact(spark, k):
    """End-to-end: ĝ within a loose multiplicative band of ESU truth for
    classes with decent frequency."""
    g = gen.er_graph(80, 280, seed=25)
    tables = buildup.build_tables(spark, g, k, seed=26)
    batch = sampler.sample_graphlets(spark, tables, 6000, seed=7)
    estimates = est.naive_estimates(batch.hits, batch.n_samples, tables)
    exact = esu.esu_counts_local(g.adj, k)
    tot = sum(exact.values())
    checked = 0
    for code, truth in exact.items():
        if truth / tot < 0.02:
            continue
        assert code in estimates
        assert abs(est.err_h(estimates[code], truth)) < 0.5
        checked += 1
    assert checked >= 2


def test_classify_matches_induced_subgraph(spark, er_tables):
    g = er_tables.graph
    k = er_tables.k
    roots = sampler.draw_roots(er_tables, 50, seed=8)
    out = sampler.unfold_treelets(spark, er_tables, roots, seed=9)
    classified = sampler.classify(spark, g, out, k)
    from repro.core import graphlet as gl

    for r in classified.itertuples():
        code = gl.canonical(esu.induced_code(g.adj, list(r.nodes)), k)
        assert code == r.gcode


def test_err_metrics():
    truth = {1: 100, 2: 50, 3: 10}
    estim = {1: 110.0, 2: 25.0}
    errs = est.error_distribution(estim, truth)
    assert errs[1] == pytest.approx(0.1)
    assert errs[2] == pytest.approx(-0.5)
    assert errs[3] == -1.0
    assert est.n_within(estim, truth, 0.5) == 2
    assert est.frac_within(estim, truth, 0.5) == pytest.approx(2 / 3)
    assert 0 < est.l1_error(estim, truth) < 2
    with pytest.raises(ValueError):
        est.err_h(1.0, 0)


def test_l2_norm_skew_proxy():
    flat = {i: 10 for i in range(10)}
    skew = {0: 10_000, 1: 1}
    assert est.l2_norm(skew) > 0.99 > est.l2_norm(flat)


def test_rarest_found():
    truth = {1: 900, 2: 90, 3: 10}
    hits = {1: 500, 2: 20, 3: 5}
    assert est.rarest_found(hits, truth, min_hits=10) == pytest.approx(90 / 1000)
    assert np.isnan(est.rarest_found({3: 2}, truth, min_hits=10))


def test_draw_roots_empty_urn_raises(spark):
    """A path has no stars: restricting the root draw to the star shape
    leaves an empty urn, and draw_roots says so instead of drawing."""
    k = 4
    tables = buildup.build_tables(spark, gen.path_graph(200), k, seed=3)
    star_u = tl.unroot(tl.star_rooted(k))
    assert tables.shape_totals()[star_u] == 0 < tables.total_treelets()
    with pytest.raises(ValueError, match="^empty urn"):
        sampler.draw_roots(tables, 10, seed=1, restrict_shapes={star_u})
