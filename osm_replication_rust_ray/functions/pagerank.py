"""Integer fixed-point PageRank (link analysis over a derived graph).

The rank update is computed entirely in int64 fixed-point (scale 1e6)
with floor division:

    r_{t+1}(v) = 150000 + (85 * inc(v)) // 100
    inc(v)     = sum over in-edges (u -> v) of  r_t(u) // outdeg(u)

so a fixed iteration count unrolls into an EXACT SQL twin (chained
CTEs) — no float accumulation order to pin.  Damping 0.85 and the
uniform teleport term use the same floor arithmetic on both sides.

Distributed shape (the same iterative-join pattern as
functions/cc.py:connected_components): edges materialize once and are
re-joined every round; each round is one equi-join (ranks on src), a
per-batch floor-divide, and a grouped SUM whose input includes one
explicit zero row per node, so nodes with no in-edges keep a row
without any outer join.  Ranks never leave the cluster; driver state
is O(1).

No reference analogue (the reference has no graph ops); sits beside
connected components in the LLM-pipeline set (e.g. page-quality
weighting of a crawl graph before sampling).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.dist import safe_join, reroot
from ..tuning import join_partitions

SCALE = 1_000_000
TELEPORT = 150_000  # (SCALE * 15) // 100
DAMP_NUM, DAMP_DEN = 85, 100

# Crossover for the single-task local regime, on BOTH the node and the
# edge count (same cardinality ladder as functions/agg.py): under it the
# per-round Ray machinery costs seconds where the arithmetic costs ms.
LOCAL_ROWS = 262_144

# Crossover for the broadcast-rank regime: two int64 arrays, so 16 B
# per node — 20M nodes = 320 MB shipped once per node per round, paid
# back by removing the edges-side all-to-all (measured ~8.6 s/round at
# 10M edges).  Past it — always at crawl-graph web scale — the shuffle
# join runs and ranks never leave the cluster.
BROADCAST_ROWS = 20_000_000


def pagerank(nodes, edges, n_iter: int = 3, est_nodes: int | None = None):
    """``nodes``: Dataset with int64 column (v); ``edges``: Dataset with
    int64 columns (src, dst, outdeg) where every src is a node and
    outdeg is src's TOTAL out-degree.  Returns a Dataset (v, rank)
    after ``n_iter`` exact fixed-point iterations.

    Three regimes, same arithmetic (results identical, as pinned by
    tests/test_pagerank.py parity):

    - **local** (nodes AND edges under ``LOCAL_ROWS``): the whole
      iteration as one numpy job (``_pagerank_local``).
    - **broadcast-rank** (nodes under ``BROADCAST_ROWS``): the rank
      vector lives as a sorted (v, rank) array pair, shipped via
      ``ray.put`` once per round; each edge block resolves src ranks
      by binary search
      (``np.searchsorted`` — no per-block hash build, the measured
      failure mode of large broadcast Acero joins), leaving ONE
      all-to-all per round (the dst aggregate).  This is the
      round-fusion trick from the distributed diff path applied to
      the iterative-join pattern.
    - **shuffle** (past both crossovers): per round one src-keyed
      shuffle join + the dst aggregate; ranks never reach the driver,
      driver state O(1).
    """
    n_nodes = est_nodes if est_nodes is not None else nodes.count()
    if n_nodes <= LOCAL_ROWS and edges.count() <= LOCAL_ROWS:
        return _pagerank_local(nodes, edges, n_iter)
    if n_nodes <= BROADCAST_ROWS:
        return _pagerank_broadcast(nodes, edges, n_iter)
    edges = edges.materialize()  # static across rounds
    # size the per-round shuffle to the MEASURED edge table (the bigger
    # join side), not the parameterless floor of 2 partitions
    n_edges = edges.count()
    n_part = join_partitions(
        n_rows=n_edges, n_bytes=n_edges * 24
    )

    def zero_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dst": b["v"],
                "contrib": pa.array(
                    np.zeros(len(b), np.int64), pa.int64()
                ),
            }
        )

    zeros = nodes.map_batches(
        zero_rows, batch_format="pyarrow", batch_size=65536
    ).materialize()

    ranks = nodes.map_batches(
        lambda b: pa.table(
            {
                "v": b["v"],
                "rank": pa.array(np.full(len(b), SCALE, np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=65536,
    ).materialize()

    from .agg import adaptive_group_aggregate

    for _ in range(n_iter):
        joined = safe_join(edges, ranks, "inner", n_part,
                           on=("src",), right_on=("v",))

        def contribs(b: pa.Table) -> pa.Table:
            r = b["rank"].to_numpy(zero_copy_only=False)
            d = b["outdeg"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "dst": b["dst"],
                    "contrib": pa.array(r // d, pa.int64()),
                }
            )

        inc = adaptive_group_aggregate(
            joined.map_batches(contribs, batch_format="pyarrow")
            .union(zeros),
            "dst",
            {"inc": ("contrib", "sum")},
            est_rows=est_nodes,
        )

        def update(b: pa.Table) -> pa.Table:
            inc_v = b["inc"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "v": b["dst"],
                    "rank": pa.array(
                        TELEPORT + (DAMP_NUM * inc_v) // DAMP_DEN, pa.int64()
                    ),
                }
            )

        ranks = reroot(inc.map_batches(update, batch_format="pyarrow"))
    return ranks



def _merge_round(vs, ranks_len, dst, new_rank):
    """Shared round epilogue: every existing node keeps a row (teleport
    floor when it received no contributions); dsts that are not yet
    nodes join the rank vector, exactly as the shuffle path's update
    emits every inc group."""
    pos = (
        np.minimum(np.searchsorted(vs, dst), len(vs) - 1)
        if len(vs)
        else np.zeros(0, np.int64)
    )
    found = (vs[pos] == dst) if len(vs) else np.zeros(0, bool)
    next_ranks = np.full(ranks_len, TELEPORT, np.int64)
    next_ranks[pos[found]] = new_rank[found]
    extra_v, extra_rank = dst[~found], new_rank[~found]
    if len(extra_v):
        merged = np.concatenate([vs, extra_v])
        order = np.argsort(merged, kind="stable")
        vs = merged[order]
        next_ranks = np.concatenate([next_ranks, extra_rank])[order]
    return vs, next_ranks


def _pagerank_local(nodes, edges, n_iter: int):
    """Single-task regime: the full iteration in one numpy pass over a
    driver-resident edge table (gated by ``LOCAL_ROWS`` on BOTH node
    and edge counts).  Arithmetic and corner semantics are the
    broadcast regime's exactly — inner-join src drop, teleport floor,
    non-node dsts joining the vector."""
    import ray
    import ray.data as rd

    node_tbl = pa.concat_tables(
        ray.get(nodes.materialize().to_arrow_refs()),
        promote_options="default",
    )
    edge_tbl = pa.concat_tables(
        ray.get(edges.materialize().to_arrow_refs()),
        promote_options="default",
    )
    vs = np.sort(
        node_tbl["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    ranks = np.full(len(vs), SCALE, np.int64)
    src = edge_tbl["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edge_tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = edge_tbl["outdeg"].to_numpy(zero_copy_only=False).astype(np.int64)

    for _ in range(n_iter):
        pos = (
            np.minimum(np.searchsorted(vs, src), len(vs) - 1)
            if len(vs)
            else np.zeros(len(src), np.int64)
        )
        ok = (vs[pos] == src) if len(vs) else np.zeros(len(src), bool)
        dsts = dst[ok]
        contrib = ranks[pos[ok]] // d[ok]
        uniq, inv = np.unique(dsts, return_inverse=True)
        inc = np.zeros(len(uniq), np.int64)
        np.add.at(inc, inv, contrib)
        new_rank = TELEPORT + (DAMP_NUM * inc) // DAMP_DEN
        vs, ranks = _merge_round(vs, len(vs), uniq, new_rank)

    return rd.from_arrow(pa.table({
        "v": pa.array(vs, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
    }))


def _pagerank_broadcast(nodes, edges, n_iter: int):
    """Broadcast-rank regime (see ``pagerank``).  Semantics replicate
    the shuffle path exactly, including the corner where an edge dst
    is not a node: such a dst still receives a rank row (it has an
    inc group), and it is carried into later rounds' rank vector —
    just as the shuffle path's ``update`` emits every inc group."""
    import ray
    import ray.data as rd

    from .agg import adaptive_group_aggregate

    node_tbl = pa.concat_tables(
        ray.get(nodes.materialize().to_arrow_refs()),
        promote_options="default",
    )
    vs = np.sort(
        node_tbl["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    ranks = np.full(len(vs), SCALE, np.int64)
    edges = edges.materialize()  # static across rounds

    for _ in range(n_iter):
        ref = ray.put((vs, ranks))

        def contribs(b: pa.Table, _ref=ref) -> pa.Table:
            vs_l, rk = ray.get(_ref)
            src = b["src"].to_numpy(zero_copy_only=False)
            d = b["outdeg"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(vs_l, src), len(vs_l) - 1)
            # inner-join semantics: srcs without a rank row drop
            ok = vs_l[pos] == src
            return pa.table(
                {
                    "dst": pa.array(
                        b["dst"].to_numpy(zero_copy_only=False)[ok],
                        pa.int64(),
                    ),
                    "contrib": pa.array(rk[pos[ok]] // d[ok], pa.int64()),
                }
            )

        inc = adaptive_group_aggregate(
            edges.map_batches(contribs, batch_format="pyarrow"),
            "dst",
            {"inc": ("contrib", "sum")},
            est_rows=len(vs),
        )
        inc_tbl = pa.concat_tables(
            ray.get(inc.materialize().to_arrow_refs()),
            promote_options="default",
        )
        dst = inc_tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        iv = inc_tbl["inc"].to_numpy(zero_copy_only=False).astype(np.int64)
        new_rank = TELEPORT + (DAMP_NUM * iv) // DAMP_DEN

        vs, ranks = _merge_round(vs, len(vs), dst, new_rank)

    out = pa.table(
        {
            "v": pa.array(vs, pa.int64()),
            "rank": pa.array(ranks, pa.int64()),
        }
    )
    chunk = 1 << 20
    if len(out) <= chunk:
        return rd.from_arrow(out)
    return rd.from_arrow(
        [out.slice(i, chunk) for i in range(0, len(out), chunk)]
    )
