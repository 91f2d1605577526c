"""bbox annotation stage (engine form of OsmXmlBBox, src/osmxml/bbox.rs:10-195).

Semantics reproduced exactly:

- per diff element, bbox = union of OLD geometry (store lookup), NEW
  geometry (the diff row itself), and the extents of elements of the
  same diff **modified at an earlier file position** (the reference's
  ``nodes/ways/relations_modified`` maps, src/osmxml/bbox.rs:16-18).
- the modified-map entries are monotone non-decreasing (each new
  occurrence unions the previous), so "map state at position p" is the
  latest running-union entry with pos < p (``_PrefixBoxes``).
- a relation's box covers every relation its own id and its diff
  relation members reach through store members.  The reference
  recurses and drops only an edge back onto its own path
  (src/osmxml/bbox.rs:106-123), so every reachable relation counts;
  a box union is commutative, associative and idempotent, so one
  visited-set walk gives the same box.

One pass of numpy over the whole diff, on the diff's store closure
(``stages/filter.py:diff_closure``).  The resolver keeps that closure,
so `closure_node_ids` and the filter of the same sequence reuse this
walk rather than walking the store again:

1. nodes: new point ∪ store point, running union per id in pos order.
2. ways: store refs (one CSR read for every way) and new refs, each
   ref's store point ∪ its node box before the way's position;
   segment union per occurrence, then running union per way id.
3. relations: per row, the relations it reaches (``_reach``, a
   visited set per row); the node leaves (member nodes and the store
   refs of member ways) and the way leaves of those relations and of
   the row, each read as in phase 2 at the row's position.  A row's
   box also unions the boxes of earlier rows of every relation it
   reaches (``relations_modified``).  That carry depends only on
   earlier rows, so it is a monotone fixpoint, solved as the filter's
   is: one round per earlier-row link, at most ``REL_ROUNDS_CAP``
   rounds, else ``FixpointCapError``.

Every diff runs through this kernel in the calling process, whatever
its size.  The kernel reads the store in bulk through the Resolver's
uncounted reads.  The per-row pass that probes the store once per
visit, and so reproduces the reference's lookup counts (33 nodes / 7
ways / 9 relations on the saint_barthelemy fixture,
src/osmxml/bbox.rs:269-271), is the test oracle ``tests/bbox_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.store import Resolver
from .dist import REL_ROUNDS_CAP, FixpointCapError
from .filter import DiffClosure, _csr, _csr_rows, _np, diff_closure

SENT_MIN = np.iinfo(np.int64).max  # empty value for min-aggregated cols
SENT_MAX = np.iinfo(np.int64).min  # empty value for max-aggregated cols
BOX_COLS = ("minlat", "maxlat", "minlon", "maxlon")

# boxes are (4, k) int64 arrays in BOX_COLS order; the empty box (the
# sentinels) is the identity of the union, so a plain elementwise
# min/max carries the previous box past a row that adds nothing
_EMPTY = np.array([SENT_MIN, SENT_MAX, SENT_MIN, SENT_MAX])[:, None]
_OPS = (np.minimum, np.maximum, np.minimum, np.maximum)


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([op(x, y) for op, x, y in zip(_OPS, a, b)])


def _segment_union(n: int, idx: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Per index in ``range(n)``, the union of its ``boxes``."""
    out = np.repeat(_EMPTY, n, axis=1)
    for op, o, b in zip(_OPS, out, boxes):
        op.at(o, idx, b)
    return out


def _running_union(key: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Per run of equal ``key`` (sorted), the running union of ``boxes``:
    a log-step (Hillis-Steele) scan, where step ``s`` folds in the box
    ``s`` rows back within the same run.  Min and max only, so the
    sentinels pass through exactly."""
    out = boxes.copy()
    n = len(key)
    run_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    depth = np.arange(n) - np.repeat(run_start, np.diff(np.append(run_start, n)))
    s = 1
    while n and s <= depth.max():
        i = np.flatnonzero(depth >= s)
        out[:, i] = _union(out[:, i], out[:, i - s])
        s *= 2
    return out


class _PrefixBoxes:
    """Per key, a history of running-union boxes by position:
    ``at(keys, ps)`` is the latest entry with pos < p, empty if none."""

    def __init__(self, key: np.ndarray, pos: np.ndarray, boxes: np.ndarray):
        o = np.lexsort((pos, key))
        self.key, self.boxes = key[o], boxes[:, o]
        # one sortable key; positions are file offsets, far below it
        self.m = int(pos.max()) + 2 if len(pos) else 1
        self.packed = self.key * self.m + pos[o]

    def at(self, keys: np.ndarray, ps: np.ndarray) -> np.ndarray:
        if not len(self.key):
            return np.repeat(_EMPTY, len(keys), axis=1)
        q = keys * self.m + np.minimum(ps, self.m - 1)
        o = np.argsort(q)  # sorted needles walk ``packed`` in order
        k = np.empty_like(q)
        k[o] = np.searchsorted(self.packed, q[o]) - 1
        i = np.maximum(k, 0)
        return np.where((k >= 0) & (self.key[i] == keys), self.boxes[:, i], _EMPTY)


def _reach(c: DiffClosure, row: np.ndarray, start: np.ndarray):
    """(row, relation) pairs: every relation of ``c.R`` that a row's
    ``start`` relations reach through store relation members, the
    starts included.  The visited set of each row bounds the walk."""
    n_r = len(c.R)
    off, order = _csr(c.edge_src, n_r)
    dst = c.edge_dst[order]
    seen = front = np.unique(row * n_r + start)
    while len(front):
        i, k = _csr_rows(off, front % n_r)
        front = np.setdiff1d(front[i] - front[i] % n_r + dst[k], seen)
        seen = np.union1d(seen, front)
    return np.divmod(seen, n_r)


def closure_node_ids(elements: pa.Table, resolver: Resolver) -> np.ndarray:
    """Sorted ids of every node the filter may probe: diff nodes, diff
    and store refs of every way it may probe, and member nodes through
    the store relation closure (``DiffClosure.N``).  The reference reads
    store geometry on demand (src/osmxml/filter.rs:118-148), so the
    filter's old points must cover all of them.  After `annotate_bbox`
    over the same resolver this is the closure it walked, not a new
    walk; the name stays, because the benchmark tracer times it."""
    return diff_closure(elements, resolver).N


def annotate_bbox(elements: pa.Table, resolver: Resolver) -> pa.Table:
    """Return ``elements`` with minlat/maxlat/minlon/maxlon filled
    (see module docstring)."""
    c = diff_closure(elements, resolver)
    pos = _np(elements["pos"]).astype(np.int64)
    box = np.repeat(_EMPTY, c.n, axis=1)
    stored = np.where(c.found, np.stack([c.lat, c.lat, c.lon, c.lon]), _EMPTY)

    # ---------------- phase 1: nodes ----------------
    o = np.lexsort((pos[c.nrow], c.nrow_u))
    rows, u = c.nrow[o], c.nrow_u[o]
    lat, lon = (elements[k].take(rows) for k in ("lat", "lon"))
    lat_ok, lon_ok = _np(lat.is_valid()), _np(lon.is_valid())
    lat, lon = (_np(a.fill_null(0)).astype(np.int64) for a in (lat, lon))
    new = np.stack([np.where(lat_ok, lat, SENT_MIN), np.where(lat_ok, lat, SENT_MAX),
                    np.where(lon_ok, lon, SENT_MIN), np.where(lon_ok, lon, SENT_MAX)])
    cum = _running_union(u, new)
    # a row with no lat (lon) reads int64 min (SENT_MAX) there, as the
    # reference pass's cast of its NaN running min does (tests/bbox_oracle.py)
    cum[:2, ~lat_ok] = SENT_MAX
    cum[2:, ~lon_ok] = SENT_MAX
    box[:, rows] = _union(cum, stored[:, u])
    node_prefix = _PrefixBoxes(u, pos[rows], box[:, rows])

    def node_boxes(n: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Store point ∪ node box before ``p``, per node index."""
        return _union(stored[:, n], node_prefix.at(n, p))

    # ---------------- phase 2: ways ----------------
    o = np.lexsort((pos[c.wrow], c.wrow_u))
    rows, w = c.wrow[o], c.wrow_u[o]
    p = pos[rows]
    occ_of = np.empty_like(o)
    occ_of[o] = np.arange(len(o))
    occ, k = _csr_rows(c.wst_off, w)
    occ = np.concatenate([occ, occ_of[c.wnew_row]])
    ref = np.concatenate([c.wst_u[k], c.wnew_u])
    occ_box = _segment_union(len(rows), occ, node_boxes(ref, p[occ]))
    box[:, rows] = _running_union(w, occ_box)
    way_prefix = _PrefixBoxes(w, p, box[:, rows])

    # ---------------- phase 3: relations ----------------
    n_r, n_n = len(c.rrow), len(c.N)
    p = pos[c.rrow]
    row, rel = _reach(c, np.concatenate([np.arange(n_r), c.drel_row]),
                      np.concatenate([c.rrow_u, c.drel]))
    off, order = _csr(c.sleaf_r, len(c.R))
    i, k = _csr_rows(off, rel)
    lrow = np.concatenate([c.dleaf_row, row[i]])
    leaf = np.concatenate([c.dleaf, c.sleaf[order][k]])
    # node leaves: member nodes, then the store refs of member ways
    is_node = leaf < n_n
    wrow, wl = lrow[~is_node], leaf[~is_node] - n_n
    j, k = _csr_rows(c.wst_off, wl)
    nrow = np.concatenate([lrow[is_node], wrow[j]])
    nl = np.concatenate([leaf[is_node], c.wst_u[k]])
    base = _segment_union(
        n_r, np.concatenate([nrow, wrow]),
        np.concatenate([node_boxes(nl, p[nrow]), way_prefix.at(wl, p[wrow])], axis=1),
    )
    # relations_modified: earlier rows of every relation a row reaches
    o = np.lexsort((p, c.rrow_u))
    rel_box = base
    for _ in range(REL_ROUNDS_CAP):
        carry = _PrefixBoxes(c.rrow_u[o], p[o], _running_union(c.rrow_u[o], rel_box[:, o]))
        nxt = _union(base, _segment_union(n_r, row, carry.at(rel, p[row])))
        if np.array_equal(nxt, rel_box):
            break
        rel_box = nxt
    else:
        raise FixpointCapError(
            f"bbox relation fixpoint did not converge within "
            f"REL_ROUNDS_CAP={REL_ROUNDS_CAP} rounds (earlier-row "
            f"relation memo chain deeper than the cap)"
        )
    box[:, c.rrow] = rel_box

    invalid = box[0] == SENT_MIN
    res = elements.drop_columns(list(BOX_COLS))
    for name, vals in zip(BOX_COLS, box):
        res = res.append_column(
            name, pa.array(np.where(invalid, 0, vals), pa.int64(), mask=invalid)
        )
    return res
