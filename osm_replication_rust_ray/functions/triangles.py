"""Exact triangle counting on an undirected graph — the third graph
operator next to connected components (`cc.py`) and PageRank
(`pagerank.py`): per-node triangle participation counts via the
DEGREE-ORDERED wedge join (the published MapReduce shape: Suri &
Vassilvitskii, "Counting Triangles and the Curse of the Last Reducer",
WWW 2011; equivalently Schank-Wagner node-iterator++).

Why degree ordering: orienting every edge from its lower-(deg, id)
endpoint to the higher one bounds each node's out-degree by
O(sqrt(m)), so the wedge self-join emits O(m^1.5) candidates on ANY
degree distribution — a plain a<b orientation explodes on the hub
nodes every power-law graph has.  Each triangle is generated exactly
once, at its lowest-ranked vertex.

Two regimes (round-4 verdict item #1 — the join pipeline's four
hash shuffles dominated wall time at probe scale, 256k edges/s):

- **broadcast-parallel** (default under ``BCAST_EDGES`` edges): ONE
  build task sorts the oriented adjacency into CSR form and the
  canonical edge set into a packed sorted key array, both shared
  zero-copy through the object store; vertex-range worker tasks then
  expand wedges and verify adjacency by ``searchsorted`` — no shuffle
  anywhere, the only exchange is the bounded per-task (node, count)
  partials.
  This is the single-node/per-node-replica regime: at 10^12-row
  scale a per-node copy of the graph no longer fits and the join
  pipeline below takes over (same crossover posture as
  ``safe_join``'s broadcast-vs-shuffle choice).
- **shuffle** (above the threshold, or ids >= 2^31 where the packed
  key would overflow): the original all-keys-only join pipeline —
  degrees (sorted-segment count over both endpoints)
  -> attach degrees to edges (2 crossover joins)
  -> orient by (deg, id)
  -> wedge self-join on the source (crossover join)
  -> adjacency check: join wedge far-pairs against the canonical
     edge table on BOTH key columns
  -> per-node counts (each triangle credits its 3 corners).

Parity tests force a regime by patching ``BCAST_EDGES``.  Measured
(tools/graph_probe.py, 2M nodes / 12M edges, 32 CPUs): shuffle 46.8 s
(256k edges/s) -> broadcast-parallel meets the >=300k edges/s bar with
the identical (node, n_tri) rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Edges under which the broadcast-parallel regime runs: 64M edges ~=
# 1.5 GB of CSR + keys in plasma.  The build task's peak RSS is far
# larger (np.unique with return_inverse, orientation and argsort
# temporaries): tools/kernel_rss_probe.py measured 259 / 414 / 719 /
# 1333 MB at 1M / 2M / 4M / 8M edges (random graph with edges/8
# nodes, input included), ~161 B per edge, so ~10.4 GB peak at this
# default.
BCAST_EDGES = 64_000_000


def _pairs_in_segments(lead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-pair index expansion for flat segment arrays: ``lead[r]`` =
    number of later same-segment rows r pairs with.  Returns (idx1,
    idx2) global row indices of every within-segment pair, j < k."""
    total = int(lead.sum())
    if total == 0:
        e = np.empty(0, np.int64)
        return e, e
    idx1 = np.repeat(np.arange(len(lead), dtype=np.int64), lead)
    run_starts = np.concatenate(([0], np.cumsum(lead)[:-1]))
    off = np.arange(total, dtype=np.int64) - np.repeat(run_starts, lead) + 1
    return idx1, idx1 + off


def _tri_build(tables: list[pa.Table]):
    """Build task: canonical distinct (a, b) edge blocks -> (node ids,
    CSR starts over node INDEX space, oriented dst indices, sorted
    packed edge keys).  Index space keeps every downstream array int32
    when possible and makes the packed key lo*n+hi overflow-free for
    any id domain with < 2^31 distinct nodes."""
    from .graphlocal import col_concat

    a = col_concat(tables, "a")
    b = col_concat(tables, "b")
    m = len(a)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    nn = len(nodes)
    if nn >= (1 << 31):
        raise ValueError("broadcast triangle regime needs < 2^31 nodes")
    ia, ib = inv[:m].astype(np.int64), inv[m:].astype(np.int64)
    deg = np.bincount(inv, minlength=nn)
    da, db = deg[ia], deg[ib]
    # orient low-(deg, id) -> high; node index order == id order
    a_low = (da < db) | ((da == db) & (ia < ib))
    src = np.where(a_low, ia, ib)
    dst = np.where(a_low, ib, ia)
    order = np.argsort(src, kind="stable")
    dst_s = dst[order].astype(np.int64)
    counts = np.bincount(src, minlength=nn)
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    keys = ia * nn + ib  # canonical a < b => ia < ib
    keys.sort()
    return nodes, starts, dst_s, keys


def _tri_chunk_counts(nodes, starts, dst_s, keys,
                      src_lo: int, src_hi: int,
                      pair_cap: int = 8_000_000) -> pa.Table:
    """Wedge-expand src indices [src_lo, src_hi), verify far pairs
    against the sorted key array, return (node, n_tri) partials.
    Sub-slices bound the in-flight pair count at ``pair_cap``."""
    nn = len(nodes)
    tri = np.zeros(nn, np.int64)
    # per-src pair volume -> sub-slice split points under pair_cap
    c = starts[src_lo + 1:src_hi + 1] - starts[src_lo:src_hi]
    pc_ = c * (c - 1) // 2
    cum = np.cumsum(pc_)
    cuts = [src_lo]
    while cuts[-1] < src_hi:
        done = cum[cuts[-1] - src_lo - 1] if cuts[-1] > src_lo else 0
        nxt = int(np.searchsorted(cum, done + pair_cap)) + src_lo + 1
        cuts.append(min(max(nxt, cuts[-1] + 1), src_hi))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s0, s1 = starts[lo], starts[hi]
        if s1 == s0:
            continue
        seg = dst_s[s0:s1]
        # lead[r] = rows after r within its src segment
        ends_rep = np.repeat(starts[lo + 1:hi + 1] - s0,
                             starts[lo + 1:hi + 1] - starts[lo:hi])
        lead = ends_rep - np.arange(s1 - s0) - 1
        i1, i2 = _pairs_in_segments(lead)
        if len(i1) == 0:
            continue
        d1, d2 = seg[i1], seg[i2]
        l = np.minimum(d1, d2)
        h = np.maximum(d1, d2)
        k = l * nn + h
        pos = np.searchsorted(keys, k)
        hit = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)] == k)
        if not hit.any():
            continue
        apex = np.repeat(
            np.arange(lo, hi, dtype=np.int64),
            starts[lo + 1:hi + 1] - starts[lo:hi])[i1][hit]
        np.add.at(tri, apex, 1)
        np.add.at(tri, l[hit], 1)
        np.add.at(tri, h[hit], 1)
    nz = np.flatnonzero(tri)
    return pa.table({"node": pa.array(nodes[nz], pa.int64()),
                     "n_tri": pa.array(tri[nz], pa.int64())})


def _triangle_counts_broadcast(edges, est_edges: int):
    """Broadcast-parallel regime: build once, fan out vertex ranges."""
    import ray
    import ray.data as rd

    from ..functions.agg import sorted_segment_aggregate
    from ..tuning import cluster_cpus

    mat = edges.materialize()

    def _build(refs):
        built = _tri_build([ray.get(r) for r in refs])
        return len(built[0]), built

    build = ray.remote(num_returns=2)(_build)
    nn_ref, built_ref = build.remote(mat.to_arrow_refs())
    nn = ray.get(nn_ref)
    if nn == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "n_tri": pa.array([], pa.int64())}))
    n_chunks = min(max(1, nn // 2048), 4 * cluster_cpus())
    bounds = np.linspace(0, nn, n_chunks + 1).astype(np.int64)

    def worker(b: pa.Table) -> pa.Table:
        nodes, starts, dst_s, keys = ray.get(built_ref)
        outs = []
        for i in b["id"].to_numpy(zero_copy_only=False):
            outs.append(_tri_chunk_counts(
                nodes, starts, dst_s, keys,
                int(bounds[i]), int(bounds[i + 1])))
        return pa.concat_tables(outs) if outs else _tri_chunk_counts(
            nodes, starts, dst_s, keys, 0, 0)

    partials = rd.range(n_chunks).map_batches(
        worker, batch_format="pyarrow", batch_size=1)
    return sorted_segment_aggregate(
        partials, "node", {"n_tri": ("n_tri", "sum")}).map_batches(
        lambda b: pa.table({"node": b["node"],
                            "n_tri": pc.cast(b["n_tri"], pa.int64())}),
        batch_format="pyarrow",
    )


def triangle_counts(edges, n_part: int, est_edges: int, est_nodes: int):
    """``edges``: Dataset (a, b) int64, canonical ``a < b``, distinct.
    Returns a Dataset (node, n_tri) over nodes in >= 1 triangle."""
    if est_edges <= BCAST_EDGES:
        return _triangle_counts_broadcast(edges, est_edges)
    return _triangle_counts_shuffle(edges, n_part, est_edges, est_nodes)


def _triangle_counts_shuffle(edges, n_part: int, est_edges: int,
                             est_nodes: int):
    from ..functions.agg import sorted_segment_aggregate
    from ..stages.dist import crossover_join

    edges = edges.materialize()

    ends = edges.map_batches(
        lambda b: pa.table({"node": pa.array(np.concatenate([
            b["a"].to_numpy(zero_copy_only=False),
            b["b"].to_numpy(zero_copy_only=False)]), pa.int64())}),
        batch_format="pyarrow",
    )
    deg = sorted_segment_aggregate(
        ends, "node", {"deg": ("node", "count")}).materialize()

    def deg_as(key: str, out: str):
        return deg.map_batches(
            lambda b, k=key, o=out: pa.table({k: b["node"], o: b["deg"]}),
            batch_format="pyarrow",
        )

    with_da = crossover_join(edges, deg_as("a", "deg_a"), on=("a",),
                             right_on=None, num_partitions=n_part,
                             est_rows=est_nodes, est_bytes=est_nodes * 16)
    with_db = crossover_join(with_da, deg_as("b", "deg_b"), on=("b",),
                             right_on=None, num_partitions=n_part,
                             est_rows=est_nodes, est_bytes=est_nodes * 16)

    def orient(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        da = t["deg_a"].to_numpy(zero_copy_only=False)
        db = t["deg_b"].to_numpy(zero_copy_only=False)
        a_low = (da < db) | ((da == db) & (a < b))
        return pa.table({
            "src": pa.array(np.where(a_low, a, b), pa.int64()),
            "dst": pa.array(np.where(a_low, b, a), pa.int64()),
            "dd": pa.array(np.where(a_low, db, da), pa.int64()),
        })

    oriented = with_db.map_batches(
        orient, batch_format="pyarrow", batch_size=65536).materialize()

    mate = oriented.map_batches(
        lambda b: pa.table({"src": b["src"], "dst2": b["dst"],
                            "dd2": b["dd"]}),
        batch_format="pyarrow",
    )
    wedges = crossover_join(
        oriented, mate, on=("src",), right_on=None,
        num_partitions=n_part, est_rows=est_edges,
        est_bytes=est_edges * 24,
    )

    def far_pair(t: pa.Table) -> pa.Table:
        """Keep each unordered wedge once (strict (deg, id) rank) and
        emit the far pair in canonical edge order."""
        d1 = t["dst"].to_numpy(zero_copy_only=False)
        d2 = t["dst2"].to_numpy(zero_copy_only=False)
        r1 = t["dd"].to_numpy(zero_copy_only=False)
        r2 = t["dd2"].to_numpy(zero_copy_only=False)
        keep = (r1 < r2) | ((r1 == r2) & (d1 < d2))
        apex = t["src"].to_numpy(zero_copy_only=False)[keep]
        d1, d2 = d1[keep], d2[keep]
        return pa.table({
            "apex": pa.array(apex, pa.int64()),
            "lo": pa.array(np.minimum(d1, d2), pa.int64()),
            "hi": pa.array(np.maximum(d1, d2), pa.int64()),
        })

    cands = wedges.map_batches(far_pair, batch_format="pyarrow",
                               batch_size=65536)
    tris = crossover_join(
        cands, edges, on=("lo", "hi"), right_on=("a", "b"),
        num_partitions=n_part, est_rows=est_edges,
        est_bytes=est_edges * 16,
    )

    corners = tris.map_batches(
        lambda b: pa.table({"node": pa.array(np.concatenate([
            b["apex"].to_numpy(zero_copy_only=False),
            b["lo"].to_numpy(zero_copy_only=False),
            b["hi"].to_numpy(zero_copy_only=False)]), pa.int64())}),
        batch_format="pyarrow",
    )
    return sorted_segment_aggregate(
        corners, "node", {"n_tri": ("node", "count")}).map_batches(
        lambda b: pa.table({"node": b["node"],
                            "n_tri": pc.cast(b["n_tri"], pa.int64())}),
        batch_format="pyarrow",
    )
