"""Payload spatial join — the engine's headline operator (J4 in SURVEY §2).

Assigns every payload row (image+caption with a derived geometry
extent) its polygon-tree paths and 3-way verdicts, replacing the
reference's per-polygon recursive diff fan-out (src/diffs.rs:168-191)
with ONE multi-label pass:

    verdict(row, poly) = keep    extent intersects the exact polygon
                         delete  extent intersects only the buffered one
                         drop    otherwise
    row is ASSIGNED to tree node P iff no ancestor of P dropped it;
    the emitted action is "delete" iff any node on the root→P path
    classified buffer-only (the action-rewrite composition of
    src/osmxml/filter.rs:231,256,294 chained through src/diffs.rs:174-185).

Scale shape (north_rule): a `map_batches` ACTOR POOL — each actor
builds, once in ``__init__``, a packed STRtree over the polygons'
bboxes expanded by the buffer (`functions/strtree.py`, one argsort);
per batch, each row's extent queries the tree (vectorized), then only
the (row, polygon) candidate pairs run the exact integer predicates.
The polygon set is broadcast once via ``ray.put`` and read in the
constructor — never re-shipped per batch.

Refine is pair-segmented for points and boxes alike: every candidate
pair expands to its polygon's edge slice of one CSR edge table, each
predicate (point-in-polygon, box-vs-polygon, distance to the buffer)
runs once on the flat expanded arrays, and the per-edge results fold
back per pair.  The elementwise arithmetic is that of the per-polygon
``geom`` predicates, so verdicts are bit-identical to them; the cost
is O(candidate edges) rather than O(candidate polygons) numpy calls.

The diff filter (``stages/filter.py``) runs its geometry on the same
index: ``point_hits`` (exact PIP, then the chordal point buffer of the
reference's GEOS buffer, from edge bands and per-polygon vertex fan
triangles) and ``box_pair_hits`` (the Euclidean box gate, on the
(box, polygon) pairs the filter picks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.strtree import STRtree
from ..geom import (
    BUFFER_DECIMICRO,
    MultiPolygon,
    _det_sign,
    _seg_seg_intersect,
    _segs_dist2,
)


def parent_path(path: str) -> str | None:
    """'./a/b/c' -> './a/b', 'a/b' -> 'a', './a' and 'a' -> None (tree root)."""
    i = path.rfind("/")
    if i <= 0 or path[:i] == ".":
        return None
    return path[:i]


def polygon_chains(paths: list[str]) -> list[list[int]]:
    """Per path, its own index in ``paths`` followed by the indices of
    its ANCESTORS that carry a polygon, nearest first: file-less
    directory levels pass the diff through unchanged
    (src/diffs.rs:174-185)."""
    idx = {p: i for i, p in enumerate(paths)}
    chains = []
    for k, p in enumerate(paths):
        chain = [k]
        par = parent_path(p)
        while par is not None:
            if par in idx:
                chain.append(idx[par])
            par = parent_path(par)
        chains.append(chain)
    return chains


# verdict names indexed by the codes ``PolyTreeIndex.verdicts(codes=True)``
# returns
VERDICTS = ("delete", "keep")


class PolyTreeIndex:
    """Candidate index over a polygon tree (built per join actor, and
    per ``stages/filter.py:filter_tree`` call): a packed
    STRtree over the buffered polygon bboxes (the north-star's
    "STRtree-backed PIP stage") yields a candidate SUPERSET of the
    (row, polygon) pairs whose extent meets the buffered polygon, and
    the exact predicates refine it."""

    # expanded (pair, edge) elements per refine chunk (_edge_chunks):
    # bounds the refine's working arrays to a few MB each
    chunk_edges = 1 << 19
    # query rows per candidate query and candidate pairs per refine
    # slice in point_hits (_refined) and box_pair_hits: bounds the per-pair
    # arrays whatever the input size and a row's polygon fan-out
    chunk_rows = 1 << 15
    chunk_pairs = 1 << 16

    def __init__(
        self,
        entries: list[tuple[str, MultiPolygon]],
        buffer: int = BUFFER_DECIMICRO,
    ):
        self.entries = entries
        self.buffer = buffer
        self.paths = [p for p, _ in entries]
        self.polys = [mp for _, mp in entries]
        bb = np.array([mp.bbox() for mp in self.polys], np.int64).reshape(-1, 4)
        self._bb = bb.T  # per-polygon (minx, miny, maxx, maxy), unbuffered
        self._fans = None  # chordal fan-triangle CSR, built on first use
        self._bbox_tree = STRtree(
            bb[:, 0] - buffer, bb[:, 1] - buffer,
            bb[:, 2] + buffer, bb[:, 3] + buffer,
        )
        # CSR edge table over ALL polygons for the pair-segmented refine
        # kernels (_edge_chunks): with many candidate polygons per
        # batch, one vectorized pass over the expanded (pair, edge)
        # array replaces ~n_polys small per-poly predicate calls whose
        # FIXED numpy overhead (~0.2 ms each) dominated at 1k polygons.
        self._edge_starts = np.zeros(len(self.polys) + 1, np.int64)
        ring_off = 0
        ex1, ey1, ex2, ey2, ering = [], [], [], [], []
        for i, mp in enumerate(self.polys):
            self._edge_starts[i + 1] = self._edge_starts[i] + len(mp.ex1)
            ex1.append(mp.ex1)
            ey1.append(mp.ey1)
            ex2.append(mp.ex2)
            ey2.append(mp.ey2)
            ering.append(mp.edge_ring_ids() + ring_off)
            ring_off += mp.n_rings
        self._ex1 = np.concatenate(ex1) if ex1 else np.empty(0, np.int64)
        self._ey1 = np.concatenate(ey1) if ey1 else np.empty(0, np.int64)
        self._ex2 = np.concatenate(ex2) if ex2 else np.empty(0, np.int64)
        self._ey2 = np.concatenate(ey2) if ey2 else np.empty(0, np.int64)
        self._ering = (
            np.concatenate(ering).astype(np.int64)
            if ering else np.empty(0, np.int64)
        )
        self._elox = np.minimum(self._ex1, self._ex2)
        self._ehix = np.maximum(self._ex1, self._ex2)
        self._eloy = np.minimum(self._ey1, self._ey2)
        self._ehiy = np.maximum(self._ey1, self._ey2)
        self._eup = (
            (self._ey2 > self._ey1).astype(np.int8)
            - (self._ey2 < self._ey1).astype(np.int8)
        )
        # float64 copies for the buffer-distance kernels (exact: every
        # coordinate and coordinate difference is far below 2**53)
        self._fx1 = self._ex1.astype(np.float64)
        self._fy1 = self._ey1.astype(np.float64)
        self._fx2 = self._ex2.astype(np.float64)
        self._fy2 = self._ey2.astype(np.float64)
        # ancestor bitmasks (multi-word for >64 polys) for vectorized
        # tree chaining: anc = ancestors only, path = ancestors | self
        n_polys = len(self.polys)
        self._n_words = max(1, (n_polys + 63) // 64)
        self._anc_mask = np.zeros((n_polys, self._n_words), np.uint64)
        self._path_mask = np.zeros((n_polys, self._n_words), np.uint64)
        for p, chain in enumerate(polygon_chains(self.paths)):
            for a in chain[1:]:
                self._anc_mask[p, a // 64] |= np.uint64(1 << (a % 64))
            self._path_mask[p] = self._anc_mask[p]
            self._path_mask[p, p // 64] |= np.uint64(1 << (p % 64))

    def candidate_pairs(self, minlon, minlat, maxlon, maxlat):
        """-> (row_idx, poly_idx) candidate pairs, unique by construction
        (one visit per (query, leaf)): closed-interval overlap with a
        buffered polygon bbox, a superset of buffered-polygon
        intersection."""
        return self._bbox_tree.query(
            np.asarray(minlon, np.int64), np.asarray(minlat, np.int64),
            np.asarray(maxlon, np.int64), np.asarray(maxlat, np.int64),
        )

    def _edge_chunks(self, poly_i):
        """Yield ``(s, e, rep, eidx)``: pairs ``[s, e)`` of ``poly_i``
        expanded to their polygons' CSR edge slices.  ``eidx`` is the
        global edge index of each expanded element, ``rep`` its pair's
        offset from ``s``; ``rep`` ascends, so each pair's edges (and,
        within them, each ring's) form one contiguous run.  A chunk
        ends at the pair whose cumulative edge count crosses the next
        multiple of ``chunk_edges``, which bounds the expanded arrays."""
        return self._pair_chunks(self._edge_starts, poly_i)

    def _pair_chunks(self, csr_starts, poly_i):
        """``_edge_chunks`` over any per-polygon CSR table whose
        offsets are ``csr_starts`` (the edges, or the fan triangles)."""
        if not len(poly_i):
            return
        starts = csr_starts[poly_i]
        ecnt = csr_starts[poly_i + 1] - starts
        cum_all = np.cumsum(ecnt)
        n_chunks = max(1, int(-(-int(cum_all[-1]) // self.chunk_edges)))
        cutpos = np.searchsorted(
            cum_all, np.arange(1, n_chunks, dtype=np.int64) * self.chunk_edges,
            side="left",
        ) + 1
        cuts = np.unique(
            np.concatenate(([0], cutpos, [len(poly_i)]))
        ).tolist()
        for s, e in zip(cuts[:-1], cuts[1:]):
            cnt = ecnt[s:e]
            total = int(cnt.sum())
            if total == 0:
                continue
            rep = np.repeat(np.arange(e - s), cnt)
            # edge k of pair j: starts[j] + k, k = position - run start
            first = starts[s:e] - (np.cumsum(cnt) - cnt)
            yield s, e, rep, first[rep] + np.arange(total)

    def _points_in_polys_pairs(self, px, py, poly_i) -> np.ndarray:
        """Boundary-inclusive PIP per (point, polygon) PAIR:
        boundary/crossing predicates run on the flat expanded (pair,
        edge) arrays; per-(pair, ring) parity folds back with
        reduceat.  Exactly geom.points_in_multipolygon's semantics
        (same _det_sign exact fallback)."""
        out = np.zeros(len(poly_i), bool)
        for s, e, rep, eidx in self._edge_chunks(poly_i):
            P = px[s:e][rep]
            Q = py[s:e][rep]
            x1, y1 = self._ex1[eidx], self._ey1[eidx]
            x2, y2 = self._ex2[eidx], self._ey2[eidx]
            inbox = (
                (P >= self._elox[eidx]) & (P <= self._ehix[eidx])
                & (Q >= self._eloy[eidx]) & (Q <= self._ehiy[eidx])
            )
            sgn0 = _det_sign(x2 - x1, Q - y1, P - x1, y2 - y1)
            cond = (y1 > Q) != (y2 > Q)
            crossing = cond & (sgn0 == self._eup[eidx])
            # per-(pair, ring) parity: segment boundaries are where
            # (pair, ring) changes
            ring = self._ering[eidx]
            bound = np.flatnonzero(
                np.concatenate(
                    ([True], (rep[1:] != rep[:-1]) | (ring[1:] != ring[:-1]))
                )
            )
            parity = np.add.reduceat(crossing.astype(np.int64), bound) % 2
            hit = np.zeros(e - s, bool)
            hit[rep[inbox & (sgn0 == 0)]] = True
            hit[rep[bound][parity == 1]] = True
            out[s:e] = hit
        return out

    def _boxes_in_polys_pairs(self, x0, y0, x1, y1, poly_i) -> np.ndarray:
        """Solid (possibly degenerate) box vs polygon per PAIR, by
        geom.boxes_intersect_multipolygon's three tests: the box's min
        corner lies in the polygon, a polygon vertex lies in the box,
        or (pairs still open) a box side meets a polygon edge.  A box
        that contains the polygon's bbox holds every vertex, so the
        vertex test accepts it without an edge walk."""
        bx0, by0, bx1, by1 = (c[poly_i] for c in self._bb)
        out = (x0 <= bx0) & (y0 <= by0) & (x1 >= bx1) & (y1 >= by1)
        todo = np.flatnonzero(~out)
        out[todo] = self._points_in_polys_pairs(x0[todo], y0[todo], poly_i[todo])
        todo = todo[~out[todo]]
        x0, y0, x1, y1 = x0[todo], y0[todo], x1[todo], y1[todo]
        for s, e, rep, eidx in self._edge_chunks(poly_i[todo]):
            bx0, by0 = x0[s:e][rep], y0[s:e][rep]
            bx1, by1 = x1[s:e][rep], y1[s:e][rep]
            vx, vy = self._ex1[eidx], self._ey1[eidx]
            hit = np.zeros(e - s, bool)
            hit[rep[(vx >= bx0) & (vx <= bx1) & (vy >= by0) & (vy <= by1)]] = True
            live = ~hit[rep]
            rep, eidx = rep[live], eidx[live]
            edge = (self._ex1[eidx], self._ey1[eidx],
                    self._ex2[eidx], self._ey2[eidx])
            for side in _box_sides(bx0[live], by0[live], bx1[live], by1[live]):
                hit[rep[_seg_seg_intersect(*side, *edge)]] = True
            out[todo[s:e]] = hit
        return out

    def _boxes_near_polys_pairs(self, x0, y0, x1, y1, poly_i) -> np.ndarray:
        """Per PAIR: some box side lies within ``buffer`` of a polygon
        edge — the distance test of geom.boxes_intersect_buffered, for
        pairs the exact box test rejected."""
        out = np.zeros(len(poly_i), bool)
        buf2 = float(self.buffer) ** 2
        x0, y0, x1, y1 = (a.astype(np.float64) for a in (x0, y0, x1, y1))
        for s, e, rep, eidx in self._edge_chunks(poly_i):
            edge = (self._fx1[eidx], self._fy1[eidx],
                    self._fx2[eidx], self._fy2[eidx])
            hit = np.zeros(e - s, bool)
            for side in _box_sides(x0[s:e][rep], y0[s:e][rep],
                                   x1[s:e][rep], y1[s:e][rep]):
                hit[rep[_segs_dist2(*side, *edge) <= buf2]] = True
            out[s:e] = hit
        return out

    def _points_near_polys_pairs(self, px, py, poly_i) -> np.ndarray:
        """Per PAIR: the point lies within ``buffer`` of a polygon edge
        — geom.points_dist2_to_rings's formula per expanded edge, for
        pairs the exact PIP test rejected."""
        out = np.zeros(len(poly_i), bool)
        buf2 = float(self.buffer) ** 2
        px, py = px.astype(np.float64), py.astype(np.float64)
        for s, e, rep, eidx in self._edge_chunks(poly_i):
            P, Q = px[s:e][rep], py[s:e][rep]
            x1, y1 = self._fx1[eidx], self._fy1[eidx]
            dx = self._fx2[eidx] - x1
            dy = self._fy2[eidx] - y1
            L2 = dx * dx + dy * dy
            L2safe = np.where(L2 == 0, 1.0, L2)
            t = np.clip(((P - x1) * dx + (Q - y1) * dy) / L2safe, 0.0, 1.0)
            d2 = (P - (x1 + t * dx)) ** 2 + (Q - (y1 + t * dy)) ** 2
            hit = np.zeros(e - s, bool)
            hit[rep[d2 <= buf2]] = True
            out[s:e] = hit
        return out

    def _fan_table(self):
        """(offsets, vx, vy, ax, ay, bx, by): every polygon's chordal
        fan triangles (``MultiPolygon.fan_triangles``, cached on the
        polygon) as one CSR table of float64 columns, built on the
        first chordal test; the tile join never builds it."""
        if self._fans is None:
            tris = [mp.fan_triangles(self.buffer) for mp in self.polys]
            starts = np.zeros(len(tris) + 1, np.int64)
            starts[1:] = np.cumsum([len(t) for t in tris])
            flat = np.concatenate(tris) if tris else np.empty((0, 6), np.int64)
            self._fans = (starts, *(flat[:, j].astype(np.float64) for j in range(6)))
        return self._fans

    def _points_in_chordal_pairs(self, px, py, poly_i) -> np.ndarray:
        """Per PAIR: the point lies in a perpendicular edge band or a
        vertex fan triangle of the chord-approximated buffer —
        geom.points_in_buffered_chordal's two tests, same arithmetic,
        per expanded edge and per expanded triangle, for pairs the
        exact PIP test rejected."""
        out = np.zeros(len(poly_i), bool)
        buf2 = float(self.buffer) ** 2
        px, py = px.astype(np.float64), py.astype(np.float64)
        for s, e, rep, eidx in self._edge_chunks(poly_i):
            P, Q = px[s:e][rep], py[s:e][rep]
            x1, y1 = self._fx1[eidx], self._fy1[eidx]
            dx = self._fx2[eidx] - x1
            dy = self._fy2[eidx] - y1
            L2 = dx * dx + dy * dy
            L2safe = np.where(L2 == 0, 1.0, L2)
            # t UNCLIPPED: the round end caps are what the fans replace
            t = ((P - x1) * dx + (Q - y1) * dy) / L2safe
            d2 = (P - (x1 + t * dx)) ** 2 + (Q - (y1 + t * dy)) ** 2
            out[s + rep[(t >= 0.0) & (t <= 1.0) & (d2 <= buf2)]] = True
        todo = np.flatnonzero(~out)
        starts, VX, VY, AX, AY, BX, BY = self._fan_table()
        px, py = px[todo], py[todo]
        for s, e, rep, tidx in self._pair_chunks(starts, poly_i[todo]):
            P, Q = px[s:e][rep], py[s:e][rep]
            vx, vy, ax, ay, bx, by = (c[tidx] for c in (VX, VY, AX, AY, BX, BY))
            d1 = (ax - vx) * (Q - vy) - (P - vx) * (ay - vy)
            d2 = (bx - ax) * (Q - ay) - (P - ax) * (by - ay)
            d3 = (vx - bx) * (Q - by) - (P - bx) * (vy - by)
            intri = ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
            out[todo[s + rep[intri]]] = True
        return out

    def _refined(self, q, codes):
        """(row_idx, poly_idx, code) of the candidate pairs of the query
        boxes ``q`` whose ``codes(x0, y0, x1, y1, poly_i)`` is nonzero
        (2: in the polygon, 1: only in its buffer).  The query runs on
        blocks of ``chunk_rows`` rows and the refine on slices of
        ``chunk_pairs`` pairs."""
        q = [np.asarray(c, np.int64) for c in q]
        out = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int8))]
        for s in range(0, len(q[0]), self.chunk_rows):
            block = [c[s:s + self.chunk_rows] for c in q]
            row_i, poly_i = self.candidate_pairs(*block)
            for t in range(0, len(row_i), self.chunk_pairs):
                r, p = row_i[t:t + self.chunk_pairs], poly_i[t:t + self.chunk_pairs]
                code = codes(*(c[r] for c in block), p)
                keep = code > 0
                out.append((r[keep] + s, p[keep], code[keep]))
        return tuple(np.concatenate(a) for a in zip(*out))

    def _point_codes(self, px, py, _px, _py, poly_i) -> np.ndarray:
        """Per PAIR: 2 in the polygon, 1 only in its chordal buffer, else 0."""
        code = self._points_in_polys_pairs(px, py, poly_i).astype(np.int8) * 2
        todo = np.flatnonzero(code == 0)
        code[todo] = self._points_in_chordal_pairs(px[todo], py[todo], poly_i[todo])
        return code

    def _box_codes(self, x0, y0, x1, y1, poly_i) -> np.ndarray:
        """Per PAIR: 2 the box meets the polygon, 1 only its Euclidean
        buffer, else 0."""
        code = self._boxes_in_polys_pairs(x0, y0, x1, y1, poly_i).astype(np.int8) * 2
        todo = np.flatnonzero(code == 0)
        code[todo] = self._boxes_near_polys_pairs(
            x0[todo], y0[todo], x1[todo], y1[todo], poly_i[todo])
        return code

    def point_hits(self, px, py):
        """-> (row_idx, poly_idx, exact): every (point, polygon) pair
        whose point lies in the polygon's CHORDAL buffer (the
        reference's GEOS buffer(0.1, 8), geom.points_in_buffered_chordal);
        ``exact`` marks the pairs inside the polygon itself
        (geom.points_in_multipolygon)."""
        row_i, poly_i, code = self._refined((px, py, px, py), self._point_codes)
        return row_i, poly_i, code == 2

    def box_pair_hits(self, minlon, minlat, maxlon, maxlat, poly_i) -> np.ndarray:
        """Per given (box, polygon) PAIR: the box meets the
        Euclidean-buffered polygon (geom.boxes_intersect_buffered).  The
        caller picks the pairs; the candidate test (overlap with the
        buffered bbox) comes first, then the refine on slices of
        ``chunk_pairs`` pairs."""
        q = [np.asarray(c, np.int64) for c in (minlon, minlat, maxlon, maxlat)]
        poly_i = np.asarray(poly_i, np.int64)
        bx0, by0, bx1, by1 = (c[poly_i] for c in self._bb)
        b = self.buffer
        out = (q[0] <= bx1 + b) & (q[1] <= by1 + b) & (q[2] >= bx0 - b) & (q[3] >= by0 - b)
        todo = np.flatnonzero(out)
        for t in range(0, len(todo), self.chunk_pairs):
            s = todo[t:t + self.chunk_pairs]
            out[s] = self._box_codes(*(c[s] for c in q), poly_i[s]) > 0
        return out

    def verdicts(self, minlon, minlat, maxlon, maxlat, *, codes: bool = False):
        """-> (row_idx, poly_idx, verdict) for assigned pairs, ordered
        by (row, poly).  ``verdict`` is a list of "keep"/"delete", or
        with ``codes`` an int8 array indexing ``VERDICTS`` (callers
        that build Arrow columns then need no per-row strings).

        Refine is one pair-segmented pass over every candidate pair
        for point and box extents alike (exact test, then the buffered
        test on the exact misses), then bitmask tree-chaining
        (assigned iff every ancestor non-drop; action delete iff any
        delete on the path)."""
        minlon = np.asarray(minlon, np.int64)
        minlat = np.asarray(minlat, np.int64)
        maxlon = np.asarray(maxlon, np.int64)
        maxlat = np.asarray(maxlat, np.int64)
        n = len(minlon)
        row_i, poly_i = self.candidate_pairs(minlon, minlat, maxlon, maxlat)
        x0, y0 = minlon[row_i], minlat[row_i]
        x1, y1 = maxlon[row_i], maxlat[row_i]
        vc = np.zeros(len(row_i), np.int8)  # 0 drop, 1 delete, 2 keep
        is_point = (x0 == x1) & (y0 == y1)
        pidx = np.flatnonzero(is_point)
        exact = self._points_in_polys_pairs(x0[pidx], y0[pidx], poly_i[pidx])
        vc[pidx[exact]] = 2
        if self.buffer > 0:
            # buffer==0 adds nothing for points: exact PIP is already
            # boundary-inclusive
            todo = pidx[~exact]
            near = self._points_near_polys_pairs(x0[todo], y0[todo], poly_i[todo])
            vc[todo[near]] = 1
        bidx = np.flatnonzero(~is_point)
        vc[bidx] = self._box_codes(x0[bidx], y0[bidx], x1[bidx], y1[bidx], poly_i[bidx])
        nonzero = vc > 0
        row_i, poly_i, vc = row_i[nonzero], poly_i[nonzero], vc[nonzero]
        # per-row assigned/delete bitmasks (multi-word)
        W = self._n_words
        assigned = np.zeros((n, W), np.uint64)
        deleted = np.zeros((n, W), np.uint64)
        word = (poly_i // 64).astype(np.int64)
        bit = np.uint64(1) << (poly_i % 64).astype(np.uint64)
        np.bitwise_or.at(assigned, (row_i, word), bit)
        dmask = vc == 1
        np.bitwise_or.at(deleted, (row_i[dmask], word[dmask]), bit[dmask])
        anc = self._anc_mask[poly_i]  # (m, W)
        path = self._path_mask[poly_i]
        ok = np.all((assigned[row_i] & anc) == anc, axis=1)
        any_del = np.any((deleted[row_i] & path) != 0, axis=1)
        row_o, poly_o, del_o = row_i[ok], poly_i[ok], any_del[ok]
        order = np.lexsort((poly_o, row_o))  # deterministic output order
        code = (~del_o[order]).astype(np.int8)
        if codes:
            return row_o[order], poly_o[order], code
        return row_o[order], poly_o[order], np.asarray(VERDICTS)[code].tolist()


def _box_sides(x0, y0, x1, y1):
    """The 4 sides of boxes as segments, in geom's order and orientation."""
    return ((x0, y0, x1, y0), (x1, y0, x1, y1), (x1, y1, x0, y1), (x0, y1, x0, y0))


class SpatialJoinActor:
    """`map_batches` actor: payload batch (with extent columns) ->
    assignments (image_id, poly_path, verdict).

    Constructor takes either the entries list directly or a
    ``ray.ObjectRef`` to it (broadcast once with ``ray.put``)."""

    def __init__(self, entries_or_ref):
        import ray

        entries = (
            ray.get(entries_or_ref)
            if isinstance(entries_or_ref, ray.ObjectRef)
            else entries_or_ref
        )
        self.index = PolyTreeIndex(entries)
        self.paths = pa.array(self.index.paths, pa.string())
        self.verdict_names = pa.array(VERDICTS, pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows, polys, codes = self.index.verdicts(
            batch["minlon"].to_numpy(zero_copy_only=False),
            batch["minlat"].to_numpy(zero_copy_only=False),
            batch["maxlon"].to_numpy(zero_copy_only=False),
            batch["maxlat"].to_numpy(zero_copy_only=False),
            codes=True,
        )
        return pa.table(
            {
                "image_id": batch["image_id"].take(pa.array(rows)),
                "poly_path": self.paths.take(pa.array(polys)),
                "verdict": self.verdict_names.take(pa.array(codes)),
            }
        )
