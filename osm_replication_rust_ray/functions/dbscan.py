"""DBSCAN density clustering over integer 2-D points, composed from
the engine's own primitives: a CELL-BINNED eps-neighbor self-join
(keys-only shuffle) -> exact-degree core test -> distributed connected
components over the core-core graph (`functions/cc.py`) -> border
assignment by min core-neighbor label.

Determinism: classic DBSCAN's border assignment is scan-order
dependent; here a border point joins the MINIMUM cluster rep among its
core neighbors, and a cluster's rep is its minimum core id — both
total-order rules, so the result is unique and SQL-replicable (the
oracle mirrors them with a recursive CTE).

Conventions (shared engine/oracle):
- neighborhood is CLOSED: d2 <= eps^2, counting the point itself, so
  ``core  <=>  |N_eps(p)| >= min_pts  <=>  degree + 1 >= min_pts``.
- border = non-core with >= 1 core neighbor; everything else noise
  (cluster_rep = -1).
- isolated cores (no core neighbor) form singleton clusters — the CC
  seed covers them explicitly.

Scale notes (100 TB): points stream; the only all-to-all is the
cell-key equi-join (cell = eps-sized grid bucket, 9-cell probe
fan-out, candidates bounded by physical density x 9); degrees via the
sorted-segment ladder (no per-group Python); CC is the bounded-round
pointer-doubling fixpoint; no driver-side per-point state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .graphlocal import col_concat, run_local

# Points under which the single-task regime runs.
LOCAL_ROWS = 262_144


def _pack_cell(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """(cx, cy) -> one int64 join key.  Shift-xor pack: collisions
    (cells 2^32 apart) only ever ADD candidates — the exact d2 refine
    removes them — so wraparound is harmless."""
    return ((cx.astype(np.uint64) << np.uint64(32))
            ^ (cy.astype(np.uint64) & np.uint64(0xFFFFFFFF))).view(np.int64)


def eps_neighbor_pairs(pts, eps: int, n_part: int, est_pts: int):
    """Directed eps-neighbor pairs ``(pa, pb)``, pa != pb, d2 <= eps^2
    — each unordered pair appears in BOTH directions (probe a hits
    index b and vice versa), which is exactly what degree counting
    needs.  ``pts``: Dataset (pid, x, y) int64."""
    from ..stages.dist import crossover_join

    def index_rows(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy(zero_copy_only=False)
        y = b["y"].to_numpy(zero_copy_only=False)
        return pa.table({
            "cell": pa.array(_pack_cell(x // eps, y // eps)),
            "pid_b": b["pid"],
            "xb": b["x"], "yb": b["y"],
        })

    def probe_rows(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy(zero_copy_only=False)
        y = b["y"].to_numpy(zero_copy_only=False)
        pid = b["pid"].to_numpy(zero_copy_only=False)
        cx, cy = x // eps, y // eps
        cells, pids, xs, ys = [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cells.append(_pack_cell(cx + dx, cy + dy))
                pids.append(pid)
                xs.append(x)
                ys.append(y)
        return pa.table({
            "cell": pa.array(np.concatenate(cells)),
            "pid": pa.array(np.concatenate(pids), pa.int64()),
            "x": pa.array(np.concatenate(xs), pa.int64()),
            "y": pa.array(np.concatenate(ys), pa.int64()),
        })

    index = pts.map_batches(index_rows, batch_format="pyarrow",
                            batch_size=65536)
    probe = pts.map_batches(probe_rows, batch_format="pyarrow",
                            batch_size=65536)
    joined = crossover_join(
        probe, index, on=("cell",), right_on=None, num_partitions=n_part,
        est_rows=est_pts, est_bytes=est_pts * 32,
    )
    eps2 = eps * eps

    def refine(b: pa.Table) -> pa.Table:
        dx = (b["x"].to_numpy(zero_copy_only=False)
              - b["xb"].to_numpy(zero_copy_only=False))
        dy = (b["y"].to_numpy(zero_copy_only=False)
              - b["yb"].to_numpy(zero_copy_only=False))
        pa_ = b["pid"].to_numpy(zero_copy_only=False)
        pb_ = b["pid_b"].to_numpy(zero_copy_only=False)
        keep = (dx * dx + dy * dy <= eps2) & (pa_ != pb_)
        return pa.table({"pa": pa.array(pa_[keep], pa.int64()),
                         "pb": pa.array(pb_[keep], pa.int64())})

    return joined.map_batches(refine, batch_format="pyarrow",
                              batch_size=65536)


def _local_pairs(xs: np.ndarray, ys: np.ndarray, eps: int):
    """Directed eps-neighbor index pairs (i, j), i != j — the local
    twin of ``eps_neighbor_pairs``: sorted packed cells +
    searchsorted spans instead of a shuffle join (no O(n^2))."""
    cells = _pack_cell(xs // eps, ys // eps)
    order = np.argsort(cells, kind="stable")
    sc = cells[order]
    pi, pj = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            tgt = _pack_cell(xs // eps + dx, ys // eps + dy)
            lo = np.searchsorted(sc, tgt, side="left")
            hi = np.searchsorted(sc, tgt, side="right")
            cnt = hi - lo
            has = cnt > 0
            if not has.any():
                continue
            # expand each probe's candidate span
            src = np.repeat(np.nonzero(has)[0], cnt[has])
            offs = (np.arange(cnt[has].sum())
                    - np.repeat(np.cumsum(cnt[has]) - cnt[has], cnt[has]))
            cand = order[np.repeat(lo[has], cnt[has]) + offs]
            d2 = ((xs[src] - xs[cand]) ** 2
                  + (ys[src] - ys[cand]) ** 2)
            keep = (d2 <= eps * eps) & (src != cand)
            pi.append(src[keep])
            pj.append(cand[keep])
    if not pi:
        return (np.empty(0, np.int64),) * 2
    return np.concatenate(pi), np.concatenate(pj)


def dbscan_local(tables: list[pa.Table], eps: int,
                 min_pts: int) -> pa.Table:
    """Single-task regime: full DBSCAN in numpy + union-find over the
    (pid, x, y) blocks.  Same conventions as the distributed path
    (parity pinned by test)."""
    pids, xs, ys = (col_concat(tables, c) for c in ("pid", "x", "y"))
    n = len(pids)
    pi, pj = _local_pairs(xs, ys, eps)
    deg = np.bincount(pi, minlength=n)
    core = deg + 1 >= min_pts
    # union-find with path-halving over core-core edges, then reps
    # normalized to the component's MIN pid
    parent = np.arange(n, dtype=np.int64)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    cc_mask = core[pi] & core[pj]
    for a, b in zip(pi[cc_mask].tolist(), pj[cc_mask].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.array([find(i) if core[i] else -1 for i in range(n)],
                    np.int64)
    # min pid per root (roots are indices; map to min member pid)
    rep = np.full(n, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(rep, root[core], pids[core])
    label = np.full(n, -1, np.int64)
    label[core] = rep[root[core]]
    # borders: min core-neighbor label
    bm = (~core[pi]) & core[pj]
    border_lab = np.full(n, np.iinfo(np.int64).max, np.int64)
    np.minimum.at(border_lab, pi[bm], label[pj[bm]])
    is_border = (~core) & (border_lab < np.iinfo(np.int64).max)
    label[is_border] = border_lab[is_border]
    role = np.where(core, "core",
                    np.where(is_border, "border", "noise"))
    return pa.table({"pid": pa.array(pids, pa.int64()),
                     "role": pa.array(role, pa.string()),
                     "cluster_rep": pa.array(label, pa.int64())})


def dbscan(pts, eps: int, min_pts: int, n_part: int, est_pts: int):
    """-> Dataset (pid, role, cluster_rep): role in
    {'core','border','noise'}, cluster_rep = min core id of the
    cluster (-1 for noise)."""
    import ray.data as rd

    from ..functions.agg import sorted_segment_aggregate
    from ..functions.cc import connected_components
    from ..stages.dist import safe_join

    if 0 < est_pts <= LOCAL_ROWS:
        # single-task regime (the cardinality ladder, same rule as
        # pagerank/agg): at kilopoint scale the distributed path's
        # ~8 join barriers + CC rounds cost ~1 min where the
        # arithmetic costs ms.  Identical conventions; regime parity
        # pinned by test_dbscan_regime_parity.
        return run_local(dbscan_local, pts, eps, min_pts)

    pairs = eps_neighbor_pairs(pts, eps, n_part, est_pts).materialize()

    deg = sorted_segment_aggregate(
        pairs.map_batches(lambda b: b.select(["pa"]),
                          batch_format="pyarrow"),
        "pa", {"deg": ("pa", "count")},
    )
    cores = deg.map_batches(
        lambda b: pa.table({"pid": b.filter(
            pc.greater_equal(b["deg"], min_pts - 1))["pa"]}),
        batch_format="pyarrow",
    ).materialize()

    empty = pa.table({"pid": pa.array([], pa.int64()),
                      "role": pa.array([], pa.string()),
                      "cluster_rep": pa.array([], pa.int64())})
    if cores.count() == 0:  # every point is noise
        noise = pts.map_batches(
            lambda b: pa.table({
                "pid": b["pid"],
                "role": pa.array(["noise"] * len(b), pa.string()),
                "cluster_rep": pa.array(
                    np.full(len(b), -1, np.int64), pa.int64()),
            }), batch_format="pyarrow")
        return rd.from_arrow(empty).union(noise)

    core_edges = safe_join(
        safe_join(
            pairs, cores.rename_columns({"pid": "pa"}), "inner", n_part,
            on=("pa",),
        ),
        cores.rename_columns({"pid": "pb"}), "inner", n_part, on=("pb",),
    ).map_batches(
        lambda b: pa.table({"id_a": b["pa"], "id_b": b["pb"]}),
        batch_format="pyarrow",
    )
    linked = connected_components(core_edges).map_batches(
        lambda b: pa.table({"pid": b["node"], "rep": b["cluster_rep"]}),
        batch_format="pyarrow",
    ).materialize()
    # isolated cores (degree >= min_pts-1 but no CORE neighbor) are
    # singleton clusters: self-labeled seeds
    iso = safe_join(cores, linked, "left_anti", n_part,
                    on=("pid",)).map_batches(
        lambda b: pa.table({"pid": b["pid"], "rep": b["pid"]}),
        batch_format="pyarrow",
    )
    core_labels = linked.union(iso).materialize()

    # border: non-core endpoint of a pair whose OTHER end is core ->
    # min core-neighbor rep (the inner join on core_labels does the
    # pb-is-core test and the label fetch in one pass)
    toward_core = safe_join(
        safe_join(pairs, cores.rename_columns({"pid": "pa"}),
                  "left_anti", n_part, on=("pa",)),
        core_labels.rename_columns({"pid": "pb"}), "inner", n_part,
        on=("pb",), payload={"rep": pa.int64()},
    )
    border = sorted_segment_aggregate(
        toward_core.map_batches(
            lambda b: pa.table({"pa": b["pa"], "rep": b["rep"]}),
            batch_format="pyarrow"),
        "pa", {"cluster_rep": ("rep", "min")},
    ).map_batches(
        lambda b: pa.table({"pid": b["pa"],
                            "cluster_rep": pc.cast(b["cluster_rep"], pa.int64())}),
        batch_format="pyarrow",
    ).materialize()

    def tag(role: str):
        def fn(b: pa.Table) -> pa.Table:
            rep = (b["rep"] if "rep" in b.column_names
                   else b["cluster_rep"])
            return pa.table({
                "pid": b["pid"],
                "role": pa.array([role] * len(b), pa.string()),
                "cluster_rep": pc.cast(rep, pa.int64()),
            })
        return fn

    labeled_keys = core_labels.map_batches(
        lambda b: b.select(["pid"]), batch_format="pyarrow").union(
        border.map_batches(lambda b: b.select(["pid"]),
                           batch_format="pyarrow"))
    noise = safe_join(pts, labeled_keys.materialize(), "left_anti",
                      n_part, on=("pid",)).map_batches(
        lambda b: pa.table({
            "pid": b["pid"],
            "role": pa.array(["noise"] * len(b), pa.string()),
            "cluster_rep": pa.array(np.full(len(b), -1, np.int64),
                                    pa.int64()),
        }), batch_format="pyarrow")

    return (core_labels.map_batches(tag("core"), batch_format="pyarrow")
            .union(border.map_batches(tag("border"),
                                      batch_format="pyarrow"))
            .union(noise))
