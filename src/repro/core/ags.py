"""AGS — Adaptive Graphlet Sampling (paper §4, Algorithm AGS).

The urn refined per treelet shape supports ``sample(T)`` (uniform over
the colorful copies of shape T), and AGS plays the online greedy
fractional-set-cover strategy:

1. sample from the current shape ``T_j`` until some graphlet reaches the
   covering threshold c̄;
2. re-choose ``T_{j*}`` minimizing the (estimated) probability that a
   sample spans an already-covered graphlet:
   ``j* = argmin_j (1/r_j) Σ_{i∈C} σ_ij · ĉ_i`` (line 14);
3. the estimate for every graphlet is ``c_i / w_i`` where
   ``w_i = Σ_rounds n_r · σ_{i,j_r} / r_{j_r}`` — unbiased for the
   colorful count since a ``sample(T_j)`` draw spans ``H_i`` with
   probability ``c_i^colorful · σ_ij / r_j``.

Sampling runs on the driver: one ``LocalSampler`` serves every round,
drawing from a per-shape alias urn built the first time that shape is
used, and its neighbor buffer is shared across rounds (the expansion
distribution does not depend on the urn). Only collecting the count
tables launches Spark jobs; rounds launch none.

Deviations from the pseudocode (documented in DESIGN.md §6): samples are
taken in batches of ``batch_size`` draws (the greedy rule is
re-evaluated between batches instead of between single draws), weights
are materialized lazily per *observed* graphlet from the round schedule
(an unobserved graphlet's estimate is 0 regardless of its weight), and
termination is budget-bounded because on real graphs many of the s_k
classes never occur (the paper, likewise, runs with a budget).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from . import spanning as sp
from .buildup import CountTables
from .graphlet import NUM_GRAPHLETS
from .local_sampler import LocalSampler

#: Vertices of at least this degree get their expansion draws buffered
#: (§3.2; scaled down from the paper's 1e4 to the analogs' hub degrees).
BUFFER_THRESHOLD = 100


@dataclass
class AGSResult:
    estimates: dict[int, float]  #: ĝ_i — uncolored count estimates
    colorful_estimates: dict[int, float]  #: c_i / w_i
    hits: dict[int, int]  #: c_i
    weights: dict[int, float]  #: w_i
    covered: set[int]
    samples_used: int
    schedule: list[tuple[int, int]] = field(default_factory=list)  #: (shape, n)

    @property
    def shapes_used(self) -> set[int]:
        return {j for j, _ in self.schedule}


def covering_threshold(eps: float, delta: float, k: int) -> int:
    """c̄ = ⌈(4/ε²)·ln(2s/δ)⌉ of Algorithm AGS (union-bound version)."""
    s = NUM_GRAPHLETS[k]
    return math.ceil(4 / eps**2 * math.log(2 * s / delta))


def ags(
    spark: SparkSession,
    tables: CountTables,
    *,
    cbar: int = 1000,
    batch_size: int = 1000,
    max_samples: int = 50_000,
    seed: int = 0,
) -> AGSResult:
    """Run batched AGS against the given count tables.

    ``cbar=1000`` is the paper's experimental setting ("which seems
    sufficient to give good accuracies on most graphlets"). ``spark``
    is unused: the tables carry their session, and rounds sample on the
    driver.
    """
    k = tables.k
    # raises ValueError("empty urn: ...") if there is no colorful k-treelet
    urns = LocalSampler(tables, seed=seed, buffer_threshold=BUFFER_THRESHOLD)
    r = {j: c for j, c in tables.shape_totals().items() if c > 0}

    hits: dict[int, int] = {}
    schedule: list[tuple[int, int]] = []
    covered: set[int] = set()
    used_shapes: set[int] = set()
    # line 5: start from an arbitrary shape — we take the most abundant,
    # which is what naive sampling would be dominated by anyway.
    current = max(r, key=r.get)
    samples_used = 0

    def weight(gcode: int) -> float:
        prof = sp.spanning_profile(gcode, k)
        return sum(n * prof.get(j, 0) / r[j] for j, n in schedule)

    while samples_used < max_samples:
        n = min(batch_size, max_samples - samples_used)
        batch = urns.sample_graphlets(n, shape=current)
        schedule.append((current, n))
        used_shapes.add(current)
        samples_used += n
        for g, x in batch.items():
            hits[g] = hits.get(g, 0) + x
        covered = {g for g, x in hits.items() if x >= cbar}

        # line 14: greedy re-choice of the next shape.
        chat = {g: hits[g] / weight(g) for g in covered}
        scores = {}
        for j in r:
            scores[j] = (
                sum(sp.spanning_profile(g, k).get(j, 0) * chat[g] for g in covered)
                / r[j]
            )
        best = min(scores, key=lambda j: (scores[j], j))
        all_observed_covered = all(x >= cbar for x in hits.values())
        if all_observed_covered:
            unexplored = [j for j in r if j not in used_shapes]
            if not unexplored:
                current = best
                break  # nothing left to cover or explore
            # explore an untouched urn before stopping
            current = min(unexplored, key=lambda j: (scores[j], j))
        else:
            current = best

    weights = {g: weight(g) for g in hits}
    colorful = {g: hits[g] / weights[g] for g in hits if weights[g] > 0}
    p = tables.p_colorful
    return AGSResult(
        estimates={g: c / p for g, c in colorful.items()},
        colorful_estimates=colorful,
        hits=hits,
        weights=weights,
        covered=covered,
        samples_used=samples_used,
        schedule=schedule,
    )
