"""Packed STR (Sort-Tile-Recursive) R-tree over integer rectangles.

The north-star spec calls for an "STRtree-backed point-in-polygon stage
hosted in actor pools".  This is that tree: a bulk-loaded, fully packed
R-tree (Leutenegger/Lopez/Edgington STR packing) whose BUILD and QUERY
are both numpy-vectorized — no per-node Python in the hot path.  It is
the candidate source of ``stages/spatial_join.PolyTreeIndex``: built
over the buffered polygon bboxes, it serves points, small boxes and
continental extents alike, for a dozen polygons or thousands.

Reference analogue: the reference prunes diff elements against each
``.poly`` bounding box one polygon at a time (src/diffs.rs:168-191,
src/osmxml/filter.rs:60-74); this replaces that linear scan with a
log-depth packed tree shared read-only across an actor pool.

Layout: levels bottom-up.  Level 0 is the STR-permuted input boxes;
level k>0 holds node MBRs over contiguous runs of ``cap`` level-(k-1)
entries, so a node's children are the slice
``[node_i*cap, min((node_i+1)*cap, len(level_{k-1})))`` — no child
pointers stored at all.
"""

from __future__ import annotations

import numpy as np


class STRtree:
    """Bulk-loaded packed R-tree over axis-aligned integer rectangles.

    Parameters
    ----------
    minx, miny, maxx, maxy : int64 arrays (one rectangle per entry)
    cap : node capacity (children per node), default 16
    """

    def __init__(self, minx, miny, maxx, maxy, cap: int = 16):
        minx = np.asarray(minx, np.int64)
        miny = np.asarray(miny, np.int64)
        maxx = np.asarray(maxx, np.int64)
        maxy = np.asarray(maxy, np.int64)
        n = len(minx)
        if cap < 2:
            raise ValueError(f"node capacity must be >= 2, got {cap}")
        self.cap = int(cap)
        self.n = n
        if n == 0:
            self.ids = np.empty(0, np.int64)
            self.levels: list[tuple[np.ndarray, ...]] = []
            return
        order = _str_order(minx, miny, maxx, maxy, self.cap)
        # level 0: permuted entry boxes; ids maps position -> input index
        self.ids = order
        boxes = (minx[order], miny[order], maxx[order], maxy[order])
        self.levels = [boxes]
        while len(self.levels[-1][0]) > 1:
            lminx, lminy, lmaxx, lmaxy = self.levels[-1]
            m = len(lminx)
            n_nodes = (m + self.cap - 1) // self.cap
            # grouped min/max over contiguous runs of cap children
            starts = np.arange(n_nodes) * self.cap
            self.levels.append(
                (
                    np.minimum.reduceat(lminx, starts),
                    np.minimum.reduceat(lminy, starts),
                    np.maximum.reduceat(lmaxx, starts),
                    np.maximum.reduceat(lmaxy, starts),
                )
            )

    def query(self, qminx, qminy, qmaxx, qmaxy):
        """Batch rectangle-overlap query.

        Returns ``(query_idx, entry_idx)`` int64 arrays: every pair
        where query box ``query_idx`` overlaps input rectangle
        ``entry_idx`` (closed-interval overlap, matching the engine's
        boundary-inclusive integer geometry).  Vectorized frontier
        expansion level by level — one numpy pass per tree level.
        """
        qminx = np.asarray(qminx, np.int64)
        qminy = np.asarray(qminy, np.int64)
        qmaxx = np.asarray(qmaxx, np.int64)
        qmaxy = np.asarray(qmaxy, np.int64)
        nq = len(qminx)
        if self.n == 0 or nq == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # frontier at the top level: every query x the (single) root
        qi = np.arange(nq, dtype=np.int64)
        ni = np.zeros(nq, np.int64)
        for lvl in range(len(self.levels) - 1, -1, -1):
            lminx, lminy, lmaxx, lmaxy = self.levels[lvl]
            hit = (
                (qminx[qi] <= lmaxx[ni])
                & (qmaxx[qi] >= lminx[ni])
                & (qminy[qi] <= lmaxy[ni])
                & (qmaxy[qi] >= lminy[ni])
            )
            qi, ni = qi[hit], ni[hit]
            if lvl == 0 or not len(qi):
                break
            # expand surviving nodes to their contiguous children in
            # level lvl-1: child span is [ni*cap, min(ni*cap+cap, m))
            m = len(self.levels[lvl - 1][0])
            starts = ni * self.cap
            counts = np.minimum(starts + self.cap, m) - starts
            total = int(counts.sum())
            rep_q = np.repeat(qi, counts)
            cum = np.cumsum(counts)
            k = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
            qi = rep_q
            ni = np.repeat(starts, counts) + k
        if not len(qi):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return qi, self.ids[ni]


def _str_order(minx, miny, maxx, maxy, cap: int) -> np.ndarray:
    """STR packing permutation: sort by center-x, cut into vertical
    strips of ``strip_nodes * cap`` entries, sort each strip by
    center-y.  Returns the entry permutation (level-0 layout)."""
    n = len(minx)
    cx = minx + (maxx - minx) // 2
    cy = miny + (maxy - miny) // 2
    n_leaves = (n + cap - 1) // cap
    n_strips = int(np.ceil(np.sqrt(n_leaves)))
    strip_size = ((n_leaves + n_strips - 1) // n_strips) * cap
    by_x = np.argsort(cx, kind="stable")
    strip_of = np.arange(n) // strip_size  # strip index per x-rank
    # within each strip, order by center-y: lexsort (y, strip)
    order_in = np.lexsort((cy[by_x], strip_of))
    return by_x[order_in]
