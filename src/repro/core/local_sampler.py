"""Driver-side per-sample sampler (paper §2.2, §3.2 buffering, §4 urns).

This is the faithful *sequential* sampling procedure: draw a root
``(v, T_C)``, then recursively unfold, sweeping the whole neighbor list
of ``v`` at every expansion to weight the candidates — the exact code
path whose cost explodes on outlier hubs (BerkStan/Orkut, §3.2). It
exists for three purposes:

- the **CC sampler baseline** of the sampling-speed table (§5.1):
  ``cc_mode=True`` stores the count tables the way CC does — hash maps
  keyed by the treelet's *representative instance* (a structure string
  standing in for CC's pointer) — and pays, per swept candidate, the
  dereference the paper calls out ("the overhead of dereferencing a
  pointer before each operation to retrieve the actual structure of
  T_C"): the instance is re-parsed into a structure before the lookup.
  Motivo mode uses succinct integer keys and bitwise ops throughout;
- measuring **neighbor buffering** (§3.2): with ``buffer_threshold``
  set, a vertex with degree >= threshold gets 100 candidate draws per
  sweep, the other 99 cached for future requests — same distribution
  (i.i.d. draws), ~1% of the sweeps on hubs;
- AGS's ``sample(T)`` (§4): one root urn per unrooted k-treelet shape,
  built lazily and kept for the sampler's lifetime. Only the root draw
  depends on the urn — the expansion distribution of ``(v, t, c)`` does
  not — so one neighbor buffer serves every urn.

Roots are drawn with the alias method in Motivo mode and by binary
search on the cumulative weights in CC mode.

Tables are collected to driver dictionaries, which is exactly CC's
in-memory regime and is feasible at our graph scale.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..exactcount.esu import induced_code
from . import graphlet as gl, treelet as tl
from .alias import AliasSampler
from .buildup import CountTables

BUFFER_DRAWS = 100


@dataclass
class LocalSampleStats:
    sweeps: int = 0  #: neighbor-list sweeps performed
    swept_neighbors: int = 0  #: total neighbors visited in sweeps
    buffer_hits: int = 0  #: expansions served from the buffer
    seconds: float = 0.0


@dataclass
class _Urn:
    """Root rows ``(v, t)`` of one urn, drawn ∝ their colorful counts."""

    rows: list[tuple[int, int]]
    alias: AliasSampler | None  #: Motivo mode
    cum: np.ndarray | None  #: CC mode: cumulative weights


@dataclass
class LocalSampler:
    """Driver-side sampler over collected count tables."""

    tables: CountTables
    buffer_threshold: int | None = None
    cc_mode: bool = False
    seed: int = 0
    stats: LocalSampleStats = field(default_factory=LocalSampleStats)

    def __post_init__(self):
        k = self.tables.k
        self._rng = np.random.default_rng(self.seed)
        self._adj = self.tables.graph.adj
        root_pdf = self.tables.root_pdf()
        self._root_v = root_pdf["v"].to_numpy(dtype=np.int64)
        self._root_t = root_pdf["t"].to_numpy(dtype=np.int64)
        self._root_w = root_pdf["cnt"].to_numpy(dtype=np.float64)
        if not self._root_w.sum() > 0:
            raise ValueError("empty urn: the tables hold no colorful k-treelet")
        um = tl.unrooted_map(k)
        self._root_shape = np.array([um[int(t)] for t in self._root_t], dtype=np.int64)
        self._urns: dict[int | None, _Urn] = {}
        # (v, t, c) -> count, and (v, t) -> [(c, count)] for sweep splits
        self._cnt: dict[tuple[int, int, int], float] = {}
        self._by_vt: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for h in range(1, k):
            for r in self.tables.levels[h].toPandas().itertuples():
                v, t, c, cnt = int(r.v), int(r.t), int(r.c), float(r.cnt)
                self._cnt[(v, t, c)] = cnt
                self._by_vt.setdefault((v, t), []).append((c, cnt))
        self._decomp = {
            t: tl.decomp(t)
            for h in range(2, k + 1)
            for t in tl.rooted_shapes(k)[h]
        }
        self._buffer: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        if self.cc_mode:
            # CC's table layout: hash maps keyed by the representative
            # instance string (standing in for CC's treelet pointer).
            from . import baseline as _bl

            self._inst = {
                t: _bl.enc_to_str(t)
                for h in range(1, k + 1)
                for t in tl.rooted_shapes(k)[h]
            }
            self._cnt_cc = {
                (v, self._inst[t], c): cnt for (v, t, c), cnt in self._cnt.items()
            }
            self._parse_inst = _bl.str_to_enc

    def _urn(self, shape: int | None) -> _Urn:
        """The root urn of unrooted k-treelet ``shape`` (every shape if
        None), built on first use."""
        urn = self._urns.get(shape)
        if urn is not None:
            return urn
        keep = slice(None) if shape is None else self._root_shape == shape
        w = self._root_w[keep]
        if not w.sum() > 0:
            raise ValueError(f"empty urn: no colorful copies of treelet shape {shape}")
        rows = list(zip(self._root_v[keep].tolist(), self._root_t[keep].tolist()))
        if self.cc_mode:
            urn = _Urn(rows, None, np.cumsum(w))
        else:
            urn = _Urn(rows, AliasSampler(w), None)
        self._urns[shape] = urn
        return urn

    def _draw_root(self, shape: int | None = None) -> tuple[int, int]:
        urn = self._urn(shape)
        if urn.alias is not None:
            i = int(urn.alias.draw(self._rng, 1)[0])
        else:
            # CC-style: binary search on the cumulative weights
            x = self._rng.random() * urn.cum[-1]
            i = int(np.searchsorted(urn.cum, x))
        return urn.rows[i]

    def _expand(self, v: int, t: int, c: int) -> tuple[int, int]:
        """Choose (u, C') ∝ c(T'_C', v)·c(T''_{C∖C'}, u); returns the
        chosen neighbor and left color set."""
        key = (v, t, c)
        buf = self._buffer.get(key)
        if buf:
            self.stats.buffer_hits += 1
            return buf.pop()
        tp, ts = self._decomp[t]
        splits = self._by_vt.get((v, tp), [])
        cands: list[tuple[int, int]] = []
        weights: list[float] = []
        self.stats.sweeps += 1
        if self.cc_mode:
            # CC's sweep: per candidate, dereference the representative
            # instance (re-parse its structure — the overhead §3.1 calls
            # out) and look the count up in the string-keyed hash map.
            ts_inst = self._inst[ts]
            for u in self._adj[v]:
                u = int(u)
                self.stats.swept_neighbors += 1
                for lcol, lcnt in splits:
                    if lcol & ~c:
                        continue
                    self._parse_inst(ts_inst)  # pointer dereference
                    rcnt = self._cnt_cc.get((u, ts_inst, c ^ lcol))
                    if rcnt:
                        cands.append((u, lcol))
                        weights.append(lcnt * rcnt)
        else:
            for u in self._adj[v]:
                u = int(u)
                self.stats.swept_neighbors += 1
                for lcol, lcnt in splits:
                    if lcol & ~c:
                        continue
                    rcnt = self._cnt.get((u, ts, c ^ lcol))
                    if rcnt:
                        cands.append((u, lcol))
                        weights.append(lcnt * rcnt)
        w = np.asarray(weights)
        n_draws = 1
        if (
            self.buffer_threshold is not None
            and len(self._adj[v]) >= self.buffer_threshold
        ):
            n_draws = BUFFER_DRAWS
        idxs = self._rng.choice(len(cands), size=n_draws, p=w / w.sum())
        if n_draws > 1:
            self._buffer[key] = [cands[int(i)] for i in idxs[1:]]
        return cands[int(idxs[0])]

    def sample_one(
        self, shape: int | None = None
    ) -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Draw one colorful k-treelet copy u.a.r. among the copies of
        unrooted ``shape`` (among all copies if None); returns (root
        shape, sorted nodes, tree edges)."""
        k = self.tables.k
        v0, t0 = self._draw_root(shape)
        nodes: list[int] = []
        edges: list[tuple[int, int]] = []
        stack = [(v0, t0, (1 << k) - 1)]
        while stack:
            v, t, c = stack.pop()
            if t == tl.SINGLETON:
                nodes.append(v)
                continue
            u, lcol = self._expand(v, t, c)
            edges.append((v, u))
            tp, ts = self._decomp[t]
            stack.append((v, tp, lcol))
            stack.append((u, ts, c ^ lcol))
        return t0, tuple(sorted(nodes)), tuple(edges)

    def sample_graphlets(self, n_samples: int, shape: int | None = None) -> dict[int, int]:
        """Per-class hits for ``n_samples`` draws from the urn of
        ``shape`` (driver-side classify)."""
        k = self.tables.k
        adj = self._adj
        hits: dict[int, int] = {}
        t0 = time.monotonic()
        for _ in range(n_samples):
            _, nodes, _ = self.sample_one(shape)
            code = gl.canonical(induced_code(adj, list(nodes)), k)
            hits[code] = hits.get(code, 0) + 1
        self.stats.seconds += time.monotonic() - t0
        return hits
