"""Tests for adaptive graphlet sampling (paper §4).

The headline behaviour under test: on star-dominated graphs naive
sampling sees only the star, while AGS switches treelet urns and
produces accurate counts for rare classes too (§5.3's Yelp story,
scaled down).
"""
import math

import pytest

from repro.core import ags, buildup, estimators as est, sampler, spanning as sp, treelet as tl
from repro.exactcount import esu
from repro.graphs import generators as gen


@pytest.fixture(scope="module")
def star_tables(spark):
    # Miniature Yelp: disjoint stars + a few random edges => the star
    # class dwarfs everything else.
    g = gen.star_heavy_graph(8, 40, 80, seed=40)
    return buildup.build_tables(spark, g, 4, seed=41)


@pytest.fixture(scope="module")
def star_truth(star_tables):
    return esu.esu_counts_local(star_tables.graph.adj, star_tables.k)


def test_star_graph_is_skewed(star_truth):
    tot = sum(star_truth.values())
    top = max(star_truth.values())
    assert top / tot > 0.9
    assert len(star_truth) >= 5
    assert est.l2_norm(star_truth) > 0.9


def test_ags_covers_rare_classes_naive_misses(spark, star_tables, star_truth):
    """Equal budgets: AGS spends most samples on rare classes that naive
    sampling barely witnesses (§5.3's Yelp behaviour, scaled down)."""
    budget = 4000
    naive = sampler.sample_graphlets(spark, star_tables, budget, seed=42)
    adaptive = ags.ags(
        spark, star_tables, cbar=150, batch_size=500, max_samples=budget, seed=43
    )
    tot = sum(star_truth.values())
    rare = {g for g, c in star_truth.items() if c / tot < 0.005}
    assert rare, "fixture must contain rare classes"
    ags_rare_hits = sum(adaptive.hits.get(g, 0) for g in rare)
    naive_rare_hits = sum(naive.hits.get(g, 0) for g in rare)
    assert ags_rare_hits > 3 * max(naive_rare_hits, 1)
    assert len(adaptive.shapes_used) >= 2, "AGS must switch urns"


def test_ags_estimates_accurate_for_covered(spark, star_tables, star_truth):
    """Theorem 4's regime: for covered graphlets, c_i/w_i is a tight
    multiplicative estimate of the *colorful* count (the uncolored
    estimate additionally carries the coloring's own variance, which for
    ultra-rare classes is irreducible under a single coloring — that is
    a property of color coding, not of AGS)."""
    res = ags.ags(
        spark, star_tables, cbar=200, batch_size=500, max_samples=6000, seed=44
    )
    colorful_truth = esu.esu_colorful_counts_local(
        star_tables.graph.adj, star_tables.colors, star_tables.k
    )
    checked = 0
    for g in res.covered:
        ct = colorful_truth.get(g, 0)
        if ct < 20:
            continue  # below any concentration regime
        assert abs(est.err_h(res.colorful_estimates[g], ct)) < 0.3
        checked += 1
    assert checked >= 2
    # AGS accuracy summary beats naive at the same budget on this graph
    naive = sampler.sample_graphlets(spark, star_tables, 6000, seed=45)
    naive_est = est.naive_estimates(naive.hits, 6000, star_tables)
    assert est.n_within(res.estimates, star_truth, 0.5) >= est.n_within(
        naive_est, star_truth, 0.5
    )


def test_ags_weights_are_schedule_consistent(spark, star_tables):
    """w_i must equal Σ_rounds n_r σ_ij / r_j for the realized schedule."""
    res = ags.ags(
        spark, star_tables, cbar=100, batch_size=400, max_samples=2000, seed=46
    )
    r = star_tables.shape_totals()
    k = star_tables.k
    for g, w in res.weights.items():
        prof = sp.spanning_profile(g, k)
        manual = sum(n * prof.get(j, 0) / r[j] for j, n in res.schedule)
        assert w == pytest.approx(manual)
    assert res.samples_used == sum(n for _, n in res.schedule)


def test_ags_on_flat_graph_still_correct(spark):
    """On a flat ER graph AGS has nothing to gain but stays correct."""
    g = gen.er_graph(70, 240, seed=47)
    tables = buildup.build_tables(spark, g, 3, seed=48)
    truth = esu.esu_counts_local(g.adj, 3)
    res = ags.ags(spark, tables, cbar=300, batch_size=600, max_samples=4000, seed=49)
    tot = sum(truth.values())
    for g_, c in truth.items():
        if c / tot > 0.05:
            assert abs(est.err_h(res.estimates.get(g_, 0.0), c)) < 0.5


def test_ags_on_graph_without_colorful_treelets_raises(spark):
    """A path on k-1 nodes leaves every urn empty."""
    tables = buildup.build_tables(spark, gen.path_graph(3), 4, seed=53)
    with pytest.raises(ValueError, match="empty urn"):
        ags.ags(spark, tables, cbar=10, batch_size=10, max_samples=20, seed=54)


def test_ags_rounds_launch_no_spark_jobs(spark, star_tables):
    """Only collecting the tables launches Spark jobs: tripling the
    number of rounds leaves the job count unchanged."""
    sc = spark.sparkContext
    jobs = {}
    for rounds in (2, 6):
        group = f"ags-rounds-{rounds}"
        sc.setJobGroup(group, group)
        try:
            res = ags.ags(
                spark, star_tables, cbar=10**9, batch_size=200, max_samples=200 * rounds, seed=55
            )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(res.schedule) == rounds
        jobs[rounds] = len(sc.statusTracker().getJobIdsForGroup(group))
    assert jobs[2] > 0
    assert jobs[6] == jobs[2]


def test_covering_threshold_formula():
    # c̄ = ceil(4/eps^2 ln(2s/delta)) — spot-check k=5 (s=21)
    assert ags.covering_threshold(1.0, 2 * 21 / math.e, 5) == 4
    big = ags.covering_threshold(0.1, 0.1, 5)
    assert big == math.ceil(400 * math.log(420))


def test_ags_unbiasedness_single_shape(spark):
    """With one treelet shape (k=3) AGS degenerates to naive sampling and
    its estimator must match the naive formula exactly."""
    g = gen.er_graph(40, 130, seed=50)
    tables = buildup.build_tables(spark, g, 3, seed=51)
    assert len(tl.unrooted_shapes(3)) == 1
    res = ags.ags(spark, tables, cbar=10**9, batch_size=1000, max_samples=2000, seed=52)
    naive_like = est.naive_estimates(res.hits, res.samples_used, tables)
    for g_, v in res.estimates.items():
        assert v == pytest.approx(naive_like[g_], rel=1e-9)
