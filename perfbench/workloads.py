"""The benchmark's workloads: one Table-1 analog each, full pipeline.

Every iteration colors the graph afresh (seed from the benchmark's
``--seed``), builds the count tables with parquet flushing (Motivo's
regime), then samples: naive uniform sampling through ``LocalSampler``
plus ``naive_estimates``, or AGS. A workload may sample its tables in
several passes, each with its own sampler seed; its sampling time is
then the median pass. ``tiny`` variants run the same code at a
token budget, on a prefix of the analog where that keeps its
structure, for the smoke test.
"""
from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

BUFFER_THRESHOLD = 100


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    k: int
    mode: str  #: "naive" (LocalSampler) or "ags"
    samples: int  #: naive sample count, or AGS max_samples
    batch_size: int = 0  #: AGS only
    cbar: int = 0  #: AGS only
    nodes: int | None = None  #: keep only vertices < nodes (tiny variants)
    passes: int = 1  #: sampling passes over each iteration's tables
    min_iterations: int = 1  #: untraced iterations a run makes at least


WORKLOADS = {
    w.name: w
    for w in [
        # Three sampling passes per build, and two builds per run: a
        # single ~2.5 s pass of single-threaded Python swings by up to
        # 40 % with the load of a shared host, more than the build.
        Workload("build-facebook-k5", "facebook", 5, "naive", 10_000, passes=3, min_iterations=2),
        # cbar sits below the batch size: with cbar = batch_size, whether
        # the star class is covered after round one (and so which urn
        # round two draws from, and how long it takes) is a coin flip.
        Workload("ags-yelp-k4", "yelp", 4, "ags", 2_000, batch_size=1_000, cbar=500),
        Workload("naive-berkstan-k4", "berkstan", 4, "naive", 20_000),
    ]
}

TINY = {
    "build-facebook-k5": dict(samples=500, nodes=120),
    # the whole yelp analog: any prefix of it holds stars only, so AGS
    # would have a single urn and stop after one round
    "ags-yelp-k4": dict(samples=400, batch_size=200, cbar=100),
    "naive-berkstan-k4": dict(samples=1_000, nodes=300),
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(w, **TINY[name]) if tiny else w


def load_graph(w: Workload):
    from repro.graphs import datasets, generators as gen

    g = datasets.load(w.dataset)
    if w.nodes is None:
        return g
    e = g.edge_array
    return gen.Graph(f"{g.name}[:{w.nodes}]", e[(e < w.nodes).all(axis=1)])


@dataclass
class Sampling:
    """One sampling pass over an iteration's tables."""

    seconds: float
    hits: dict[int, int]
    estimates: dict[int, float]
    local: object = None  #: the LocalSampler, naive mode
    ags: object = None  #: the AGSResult, AGS mode


@dataclass
class Outcome:
    build_s: float
    tables: object
    passes: list[Sampling]

    @property
    def sample_s(self) -> float:
        return statistics.median(p.seconds for p in self.passes)

    @property
    def e2e_s(self) -> float:
        return self.build_s + self.sample_s

    @property
    def first(self) -> Sampling:
        return self.passes[0]


def run(spark, w: Workload, graph, seed: int, flush_dir: Path, passes: int | None = None) -> Outcome:
    """Graph in memory → estimates: build-up, then sampling + estimation
    (``passes`` times, default the workload's)."""
    from repro.core import ags, buildup, estimators, local_sampler

    t0 = time.perf_counter()
    tables = buildup.build_tables(spark, graph, w.k, seed=seed, flush_dir=str(flush_dir))
    build_s = time.perf_counter() - t0
    done = []
    for p in range(w.passes if passes is None else passes):
        # pass 0 draws with seed + 1; later passes get seeds no other
        # iteration's pass uses
        sampler_seed = seed + 1 + p * 1_000_003
        t1 = time.perf_counter()
        if w.mode == "naive":
            ls = local_sampler.LocalSampler(
                tables, buffer_threshold=BUFFER_THRESHOLD, seed=sampler_seed
            )
            hits = ls.sample_graphlets(w.samples)
            est = estimators.naive_estimates(hits, w.samples, tables)
            t2 = time.perf_counter()
            done.append(Sampling(t2 - t1, hits, est, local=ls))
            continue
        res = ags.ags(
            spark,
            tables,
            cbar=w.cbar,
            batch_size=w.batch_size,
            max_samples=w.samples,
            seed=sampler_seed,
        )
        t2 = time.perf_counter()
        done.append(Sampling(t2 - t1, res.hits, res.estimates, ags=res))
    return Outcome(build_s, tables, done)


def warm_up(spark, w: Workload, flush_dir: Path) -> None:
    """Run the workload's code path once on a 60-node graph so the JVM's
    JIT and Spark's codegen cache are warm before the first timed call."""
    from repro.graphs import generators as gen

    tiny = dataclasses.replace(w, samples=50, batch_size=50, cbar=10)
    run(spark, tiny, gen.ba_graph(60, 3, seed=0, name="warmup"), 0, flush_dir, passes=1)
