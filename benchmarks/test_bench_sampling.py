"""Benchmark: sampling phase — Motivo's vectorized sampler vs the
CC-style per-sample recursion (table 4's measurement, small scale)."""
import pytest

from repro.core import buildup, local_sampler, sampler
from repro.graphs import generators as gen

K = 4
N = 3000


@pytest.fixture(scope="module")
def bench_tables(spark):
    g = gen.ba_graph(600, 6, seed=72)
    return buildup.build_tables(spark, g, K, seed=73)


def test_bench_sampling_motivo(benchmark, spark, bench_tables):
    batch = benchmark.pedantic(
        sampler.sample_graphlets,
        args=(spark, bench_tables, N),
        kwargs={"seed": 74},
        rounds=1,
        iterations=1,
    )
    assert batch.n_samples == N


def test_bench_sampling_cc_baseline(benchmark, bench_tables):
    s = local_sampler.LocalSampler(bench_tables, seed=75, cc_mode=True)
    hits = benchmark.pedantic(s.sample_graphlets, args=(N,), rounds=1, iterations=1)
    assert sum(hits.values()) == N


def test_bench_sampling_buffered(benchmark, spark):
    g = gen.hub_graph(400, 900, 1, 200, seed=76)
    tables = buildup.build_tables(spark, g, K, seed=77)
    s = local_sampler.LocalSampler(tables, seed=78, buffer_threshold=100)
    hits = benchmark.pedantic(s.sample_graphlets, args=(N,), rounds=1, iterations=1)
    assert sum(hits.values()) == N
