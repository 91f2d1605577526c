"""Single-task local kernels for the iterative graph queries (BFS,
deterministic random walks) — the third rung of the cardinality ladder
(round-4 verdict item #1, same playbook as ``functions/dbscan.py`` and
PageRank's local regime): under a measured edge-count crossover the
whole BSP iteration runs as ONE numpy job inside one Ray task, so the
per-round join/sort/anti-join barriers of the distributed formulation
(``pipelines/queries.py:q_bfs_hops`` / ``q_random_walks``) disappear.

Both kernels are exact twins of the distributed semantics (pinned by
``tests/test_graph_local.py`` parity tests, both regimes forced by
patching ``LOCAL_ROWS``):

- BFS: min-hops from the seed set over the symmetrized graph, capped
  at ``max_hops``; isolated seeds report hops 0.
- Walks: from every seed, step ``s`` moves to the neighbor minimizing
  ``mix64(dst*C1 + cur*C2 + s)`` (ties -> min dst); a dead end stops
  the walk.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# Edge-count crossover below which the BFS / walk / HITS / label-
# propagation queries run their single-task kernels.
LOCAL_ROWS = 8_000_000


def run_local(kernel, ds, *args):
    """Run ``kernel(tables, *args)`` as ONE Ray task over ``ds``'s
    blocks — the whole iteration of a single-task regime.  The result
    table stays in the object store; a kernel error (e.g.
    ``FixpointCapError``) raises here, because ``from_arrow_refs``
    fetches the result's metadata eagerly."""
    import ray
    import ray.data as rd

    task = ray.remote(lambda refs: kernel([ray.get(r) for r in refs], *args))
    return rd.from_arrow_refs([task.remote(ds.to_arrow_refs())])


def col_concat(tables: list[pa.Table], name: str) -> np.ndarray:
    """Concatenate one int64 column across blocks, skipping the
    schema-less empty blocks a small-table ``repartition`` emits."""
    parts = [t[name].to_numpy(zero_copy_only=False)
             for t in tables if name in t.schema.names]
    return (np.concatenate(parts).astype(np.int64, copy=False)
            if parts else np.empty(0, np.int64))


def _sym_csr(tables: list[pa.Table], n: int):
    """Symmetrized CSR adjacency over node ids [0, n) from canonical
    (a, b) edge blocks."""
    a = col_concat(tables, "a")
    b = col_concat(tables, "b")
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.argsort(src, kind="stable")
    dst_s = dst[order]
    counts = np.bincount(src, minlength=n)
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return starts, dst_s


def bfs_local(tables: list[pa.Table], n: int, seed_mod: int,
              max_hops: int) -> pa.Table:
    """-> (node, hops) for every node within ``max_hops`` of the seeds."""
    starts, dst_s = _sym_csr(tables, n)
    dist = np.full(n, -1, np.int64)
    frontier = np.arange(0, n, seed_mod, dtype=np.int64)
    dist[frontier] = 0
    for hop in range(1, max_hops + 1):
        if len(frontier) == 0:
            break
        # vectorized gather of all frontier adjacency slices
        reps = starts[frontier + 1] - starts[frontier]
        total = int(reps.sum())
        if total:
            base = np.repeat(starts[frontier], reps)
            off = (np.arange(total)
                   - np.repeat(np.concatenate(([0], np.cumsum(reps)[:-1])),
                               reps))
            nbrs = dst_s[base + off]
        else:
            nbrs = np.empty(0, np.int64)
        nxt = np.unique(nbrs[dist[nbrs] < 0]) if len(nbrs) else nbrs
        if len(nxt) == 0:
            break
        dist[nxt] = hop
        frontier = nxt
    hit = np.flatnonzero(dist >= 0)
    return pa.table({"node": pa.array(hit.astype(np.int64), pa.int64()),
                     "hops": pa.array(dist[hit], pa.int64())})


def lpa_local(tables: list[pa.Table], n: int, rounds: int) -> pa.Table:
    """Synchronous label-propagation communities, ``rounds`` fixed
    rounds from own-id seeds: each node with neighbors adopts the most
    frequent neighbor label, ties -> min label; isolated nodes keep
    their own id.  Deterministic; exact twin of the distributed path
    and the unrolled SQL oracle."""
    starts, dst_s = _sym_csr(tables, n)
    deg = (starts[1:] - starts[:-1])
    src_rep = np.repeat(np.arange(n, dtype=np.int64), deg)
    lab = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        nl = lab[dst_s]
        order = np.lexsort((nl, src_rep))
        s, l = src_rep[order], nl[order]
        new_run = np.concatenate(([True], (s[1:] != s[:-1])
                                  | (l[1:] != l[:-1])))
        rs = np.flatnonzero(new_run)
        cnt = np.diff(np.concatenate((rs, [len(s)])))
        # per src: max count, tie -> min label ((src, cnt asc, lab
        # desc) sorted, take last per src == argmax by (cnt, -lab))
        o2 = np.lexsort((-l[rs], cnt, s[rs]))
        ss = s[rs][o2]
        last = np.concatenate((ss[1:] != ss[:-1], [True]))
        upd_nodes = ss[last]
        upd_lab = l[rs][o2][last]
        lab = lab.copy()
        lab[upd_nodes] = upd_lab
    return pa.table({"node": pa.array(np.arange(n, dtype=np.int64),
                                      pa.int64()),
                     "community": pa.array(lab, pa.int64())})


def walks_local(tables: list[pa.Table], n: int, seed_mod: int,
                steps: int, c1: int, c2: int) -> pa.Table:
    """-> (walk_id, step, node) path rows of the hash-argmin walks."""
    from ..sources.synth import _mix64

    starts, dst_s = _sym_csr(tables, n)
    seeds = np.arange(0, n, seed_mod, dtype=np.int64)
    wid = seeds.copy()
    cur = seeds.copy()
    out_w = [wid.copy()]
    out_s = [np.zeros(len(wid), np.int64)]
    out_n = [cur.copy()]
    for s in range(1, steps + 1):
        deg = starts[cur + 1] - starts[cur]
        alive = deg > 0
        wid, cur, deg = wid[alive], cur[alive], deg[alive]
        if len(wid) == 0:
            break
        total = int(deg.sum())
        base = np.repeat(starts[cur], deg)
        off = (np.arange(total)
               - np.repeat(np.concatenate(([0], np.cumsum(deg)[:-1])), deg))
        cand_dst = dst_s[base + off]
        cand_cur = np.repeat(cur, deg)
        walk_rep = np.repeat(np.arange(len(wid)), deg)
        h = (_mix64((cand_dst * c1 + cand_cur * c2 + s).astype(np.uint64))
             >> np.uint64(1)).astype(np.int64)
        order = np.lexsort((cand_dst, h, walk_rep))
        first = np.concatenate(
            ([True], walk_rep[order][1:] != walk_rep[order][:-1]))
        cur = cand_dst[order][first]
        out_w.append(wid.copy())
        out_s.append(np.full(len(wid), s, np.int64))
        out_n.append(cur.copy())
    return pa.table({
        "walk_id": pa.array(np.concatenate(out_w), pa.int64()),
        "step": pa.array(np.concatenate(out_s), pa.int64()),
        "node": pa.array(np.concatenate(out_n), pa.int64()),
    })
