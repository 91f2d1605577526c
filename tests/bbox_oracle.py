"""The per-row bbox pass of OsmXmlBBox (src/osmxml/bbox.rs:10-195),
kept as the test oracle of the bbox kernel (`stages/bbox.py`).

Nodes and ways go through vectorized prefix unions; relations walk
their store members recursively per row with the reference's path
guard (a relation already on the recursion path is dropped,
src/osmxml/bbox.rs:106-123), probing one store lookup per visit.  So
it reproduces the reference's store-lookup counts exactly (33 nodes /
7 ways / 9 relations on the saint_barthelemy fixture,
src/osmxml/bbox.rs:269-271).  The path guard is not a visited set:
a relation that lists a child twice doubles the walk at each level.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from osm_replication_rust_ray.sources.store import Resolver

_I64MAX = np.iinfo(np.int64).max
_I64MIN = np.iinfo(np.int64).min


class _Box:
    """Mutable optional bounding box (expand-only)."""

    __slots__ = ("minlat", "maxlat", "minlon", "maxlon", "some")

    def __init__(self):
        self.minlat = _I64MAX
        self.maxlat = _I64MIN
        self.minlon = _I64MAX
        self.maxlon = _I64MIN
        self.some = False

    def add(self, minlat, maxlat, minlon, maxlon):
        if minlat is None:
            return
        self.minlat = min(self.minlat, minlat)
        self.maxlat = max(self.maxlat, maxlat)
        self.minlon = min(self.minlon, minlon)
        self.maxlon = max(self.maxlon, maxlon)
        self.some = True

    def tuple(self):
        if not self.some:
            return (None, None, None, None)
        return (self.minlat, self.maxlat, self.minlon, self.maxlon)


class _PrefixBoxes:
    """Per-id, pos-sorted prefix-union boxes: query = box state with pos < p."""

    def __init__(self, df: pd.DataFrame):
        # df columns: id, pos, minlat, maxlat, minlon, maxlon  (box per occurrence,
        # already cumulative per id in pos order)
        df = df.sort_values(["id", "pos"], kind="stable")
        self.ids = df["id"].to_numpy(np.int64)
        self.pos = df["pos"].to_numpy(np.int64)
        self.minlat = df["minlat"].to_numpy()
        self.maxlat = df["maxlat"].to_numpy()
        self.minlon = df["minlon"].to_numpy()
        self.maxlon = df["maxlon"].to_numpy()
        self.id_start = {}
        uniq, starts = np.unique(self.ids, return_index=True)
        ends = np.append(starts[1:], len(self.ids))
        for u, s, e in zip(uniq.tolist(), starts.tolist(), ends.tolist()):
            self.id_start[u] = (s, e)

    def query(self, eid: int, p: int):
        se = self.id_start.get(int(eid))
        if se is None:
            return None
        s, e = se
        k = np.searchsorted(self.pos[s:e], p)  # pos < p
        if k == 0:
            return None
        i = s + k - 1
        ml = self.minlat[i]
        if pd.isna(ml):
            return None
        return (int(ml), int(self.maxlat[i]), int(self.minlon[i]), int(self.maxlon[i]))

    def query_many(self, eids: np.ndarray, ps: np.ndarray):
        """Vectorized prefix query: per (id, pos) pair, the box state
        with pos < p, as (valid, minlat, maxlat, minlon, maxlon)."""
        n = len(eids)
        if n == 0 or len(self.ids) == 0:
            z = np.zeros(n, np.int64)
            return np.zeros(n, bool), z, z, z, z
        # entries are (id, pos)-lexicographically sorted; pack into one
        # sortable key (positions are file offsets, far below the pack)
        m = np.int64(max(int(self.pos.max()), int(ps.max())) + 2)
        keys = self.ids * m + self.pos
        probe = eids.astype(np.int64) * m + ps.astype(np.int64)
        k = np.searchsorted(keys, probe, side="left")
        has = k > 0
        i = np.maximum(k - 1, 0)
        has &= self.ids[i] == eids
        has &= ~pd.isna(self.minlat[i])
        z = np.zeros(n, np.int64)
        sel = np.where(has, i, 0)
        take = lambda a: np.where(  # noqa: E731
            has, np.nan_to_num(a[sel]).astype(np.int64), z
        )
        return has, take(self.minlat), take(self.maxlat), take(self.minlon), take(self.maxlon)


def annotate_bbox(elements: pa.Table, resolver: Resolver) -> pa.Table:
    """Return ``elements`` with minlat/maxlat/minlon/maxlon filled.

    Exact reproduction of the reference's sequential pass via the
    three-phase prefix-union formulation (see module docstring)."""
    df = elements.to_pandas()
    n = len(df)
    out = {
        "minlat": np.full(n, np.nan),
        "maxlat": np.full(n, np.nan),
        "minlon": np.full(n, np.nan),
        "maxlon": np.full(n, np.nan),
    }
    # O(1) row lookup by file position (the per-way/relation writes
    # below would otherwise scan the frame per element)
    row_of_pos = dict(zip(df["pos"].tolist(), df.index.tolist()))

    # ---------------- phase 1: nodes ----------------
    nmask = (df.etype == "node").to_numpy()
    ndf = df.loc[nmask, ["pos", "id", "lat", "lon"]].copy()
    if len(ndf):
        found, olat, olon = resolver.read_nodes(ndf["id"].to_numpy(np.int64))
        ndf = ndf.sort_values(["id", "pos"], kind="stable")
        # reorder old-point arrays to the sorted frame
        order = ndf.index.to_numpy()
        pos_of = {ix: k for k, ix in enumerate(df.index[nmask])}
        sel = np.array([pos_of[ix] for ix in order])
        found, olat, olon = found[sel], olat[sel], olon[sel]
        g = ndf.groupby("id", sort=False)
        cmin_lat = g["lat"].cummin().to_numpy(np.int64)
        cmax_lat = g["lat"].cummax().to_numpy(np.int64)
        cmin_lon = g["lon"].cummin().to_numpy(np.int64)
        cmax_lon = g["lon"].cummax().to_numpy(np.int64)
        bminlat = np.where(found, np.minimum(cmin_lat, olat), cmin_lat)
        bmaxlat = np.where(found, np.maximum(cmax_lat, olat), cmax_lat)
        bminlon = np.where(found, np.minimum(cmin_lon, olon), cmin_lon)
        bmaxlon = np.where(found, np.maximum(cmax_lon, olon), cmax_lon)
        rows = ndf.index.to_numpy()
        out["minlat"][rows] = bminlat
        out["maxlat"][rows] = bmaxlat
        out["minlon"][rows] = bminlon
        out["maxlon"][rows] = bmaxlon
        node_prefix = _PrefixBoxes(
            pd.DataFrame(
                {
                    "id": ndf["id"].to_numpy(np.int64),
                    "pos": ndf["pos"].to_numpy(np.int64),
                    "minlat": bminlat,
                    "maxlat": bmaxlat,
                    "minlon": bminlon,
                    "maxlon": bmaxlon,
                }
            )
        )
    else:
        node_prefix = _PrefixBoxes(
            pd.DataFrame(columns=["id", "pos", "minlat", "maxlat", "minlon", "maxlon"])
        )

    def node_box_at(nid: int, p: int) -> tuple | None:
        """expand_bbox_node_id: modified-map prefix ∪ store point.
        Issues one store node lookup (counting parity)."""
        b = _Box()
        pref = node_prefix.query(nid, p)
        if pref is not None:
            b.add(*pref)
        f, la, lo = resolver.read_nodes(np.array([nid], np.int64))
        if f[0]:
            b.add(int(la[0]), int(la[0]), int(lo[0]), int(lo[0]))
        return b.tuple() if b.some else None

    # batch variant for way refs (same lookup counts, vectorized)
    def node_boxes_at(nids: np.ndarray, p: int) -> _Box:
        b = _Box()
        if len(nids) == 0:
            return b
        f, la, lo = resolver.read_nodes(nids)
        if f.any():
            b.add(
                int(la[f].min()), int(la[f].max()), int(lo[f].min()), int(lo[f].max())
            )
        for nid in nids.tolist():
            pref = node_prefix.query(nid, p)
            if pref is not None:
                b.add(*pref)
        return b

    # ---------------- phase 2: ways (vectorized) ----------------
    # A way occurrence's box is prev-occurrence-box ∪ (old store refs ∪
    # new diff refs, each ref contributing its store point and its
    # node-modified prefix state at this pos).  The prev-box chain is a
    # per-way-id cumulative union in pos order, so the whole phase is:
    # explode refs -> one batched store lookup + one vectorized prefix
    # query -> segment min/max per occurrence -> groupby-cummin/cummax.
    # Store-lookup COUNTS are preserved exactly (read_way once per
    # occurrence, read_nodes over the same ref multiset) — the 7-way /
    # 33-node invariant of src/osmxml/bbox.rs:269-271 still pins them.
    wmask = (df.etype == "way").to_numpy()
    wdf = df.loc[wmask, ["pos", "id", "refs"]].sort_values("pos", kind="stable")
    n_w = len(wdf)
    w_pos = wdf["pos"].to_numpy(np.int64)
    w_id = wdf["id"].to_numpy(np.int64)
    ref_ids: list[np.ndarray] = []
    ref_occ: list[np.ndarray] = []
    for k, (wid, refs) in enumerate(zip(w_id.tolist(), wdf["refs"].tolist())):
        old_refs = resolver.read_way(int(wid))  # 1 way lookup/occurrence
        parts = []
        if old_refs is not None:
            parts.append(np.asarray(old_refs, np.int64))
        if refs is not None and len(refs):
            parts.append(np.asarray(list(refs), np.int64))
        if parts:
            ids = np.concatenate(parts)
            ref_ids.append(ids)
            ref_occ.append(np.full(len(ids), k, np.int64))
    if n_w:
        big_minlat = np.full(n_w, _I64MAX)
        big_maxlat = np.full(n_w, _I64MIN)
        big_minlon = np.full(n_w, _I64MAX)
        big_maxlon = np.full(n_w, _I64MIN)
        if ref_ids:
            rid_all = np.concatenate(ref_ids)
            rocc_all = np.concatenate(ref_occ)
            f, la, lo = resolver.read_nodes(rid_all)  # one batched lookup
            pv, pminlat, pmaxlat, pminlon, pmaxlon = node_prefix.query_many(
                rid_all, w_pos[rocc_all]
            )
            # per-exploded-row candidate extents (store point ∪ prefix)
            any_src = f | pv
            cminlat = np.where(f, la, _I64MAX)
            cmaxlat = np.where(f, la, _I64MIN)
            cminlon = np.where(f, lo, _I64MAX)
            cmaxlon = np.where(f, lo, _I64MIN)
            cminlat = np.minimum(cminlat, np.where(pv, pminlat, _I64MAX))
            cmaxlat = np.maximum(cmaxlat, np.where(pv, pmaxlat, _I64MIN))
            cminlon = np.minimum(cminlon, np.where(pv, pminlon, _I64MAX))
            cmaxlon = np.maximum(cmaxlon, np.where(pv, pmaxlon, _I64MIN))
            # segment-reduce per occurrence (rows already occ-ordered)
            m = any_src
            if m.any():
                occ = rocc_all[m]
                starts = np.flatnonzero(
                    np.concatenate(([True], occ[1:] != occ[:-1]))
                )
                o = occ[starts]
                big_minlat[o] = np.minimum.reduceat(cminlat[m], starts)
                big_maxlat[o] = np.maximum.reduceat(cmaxlat[m], starts)
                big_minlon[o] = np.minimum.reduceat(cminlon[m], starts)
                big_maxlon[o] = np.maximum.reduceat(cmaxlon[m], starts)
        # cumulative union per way id in pos order (prev-box chaining)
        wb = pd.DataFrame(
            {
                "id": w_id,
                "minlat": np.where(big_minlat == _I64MAX, np.nan, big_minlat),
                "maxlat": np.where(big_maxlat == _I64MIN, np.nan, big_maxlat),
                "minlon": np.where(big_minlon == _I64MAX, np.nan, big_minlon),
                "maxlon": np.where(big_maxlon == _I64MIN, np.nan, big_maxlon),
            }
        )
        g = wb.groupby("id", sort=False)
        # cummin/cummax leave NaN AT a no-contribution occurrence (they
        # only skip NaN for later positions), but the reference carries
        # the previous occurrence's box there (ways_modified is a
        # monotone prefix union, src/osmxml/bbox.rs:78-85) — forward-
        # fill within each way id restores the carry (one grouped
        # ffill over all four cum columns)
        cum = pd.DataFrame(
            {
                "id": wb["id"],
                "minlat": g["minlat"].cummin(),
                "maxlat": g["maxlat"].cummax(),
                "minlon": g["minlon"].cummin(),
                "maxlon": g["maxlon"].cummax(),
            }
        ).groupby("id", sort=False).ffill()
        cum_minlat = cum["minlat"].to_numpy()
        cum_maxlat = cum["maxlat"].to_numpy()
        cum_minlon = cum["minlon"].to_numpy()
        cum_maxlon = cum["maxlon"].to_numpy()
        some = ~np.isnan(cum_minlat)
        rows_idx = np.array([row_of_pos[int(p)] for p in w_pos[some]], np.int64)
        out["minlat"][rows_idx] = cum_minlat[some]
        out["maxlat"][rows_idx] = cum_maxlat[some]
        out["minlon"][rows_idx] = cum_minlon[some]
        out["maxlon"][rows_idx] = cum_maxlon[some]
        way_prefix = _PrefixBoxes(
            pd.DataFrame(
                {
                    "id": w_id,
                    "pos": w_pos,
                    "minlat": cum_minlat,
                    "maxlat": cum_maxlat,
                    "minlon": cum_minlon,
                    "maxlon": cum_maxlon,
                }
            )
        )
    else:
        way_prefix = _PrefixBoxes(
            pd.DataFrame(columns=["id", "pos", "minlat", "maxlat", "minlon", "maxlon"])
        )

    def way_box_at(wid: int, p: int) -> tuple | None:
        """expand_bbox_way_id inside relation expansion."""
        b = _Box()
        pref = way_prefix.query(wid, p)
        if pref is not None:
            b.add(*pref)
        old_refs = resolver.read_way(wid)
        if old_refs is not None:
            sub = node_boxes_at(np.asarray(old_refs, np.int64), p)
            if sub.some:
                b.add(*sub.tuple())
        return b.tuple() if b.some else None

    # ---------------- phase 3: relations ----------------
    rmask = (df.etype == "relation").to_numpy()
    rdf = df.loc[rmask, ["pos", "id", "members"]].sort_values("pos", kind="stable")
    relations_modified: dict[int, tuple] = {}

    def expand_rel_only(b: _Box, members, prev: list[int], p: int):
        for m in members:
            t, r = m["type"], int(m["ref"])
            if t == "node":
                nb = node_box_at(r, p)
                if nb:
                    b.add(*nb)
            elif t == "way":
                wb = way_box_at(r, p)
                if wb:
                    b.add(*wb)
            elif t == "relation":
                expand_rel_id(b, r, prev, p)
            else:  # pragma: no cover
                raise ValueError(f"Unsupported relation member: {m}")

    def expand_rel_id(b: _Box, rid: int, prev: list[int], p: int):
        if rid in prev:
            return  # recursion dropped (src/osmxml/bbox.rs:112-115)
        rm = relations_modified.get(rid)
        if rm is not None:
            b.add(*rm)
        members = resolver.read_relation(rid)
        if members is not None:
            expand_rel_only(b, members, prev + [rid], p)

    for row in rdf.itertuples():
        p = int(row.pos)
        rid = int(row.id)
        b = _Box()
        expand_rel_id(b, rid, [], p)
        members = row.members if row.members is not None else []
        expand_rel_only(b, members, [rid], p)
        if b.some:
            t = b.tuple()
            relations_modified[rid] = t
            i = row_of_pos[p]
            out["minlat"][i] = t[0]
            out["maxlat"][i] = t[1]
            out["minlon"][i] = t[2]
            out["maxlon"][i] = t[3]

    res = elements.drop_columns(["minlat", "maxlat", "minlon", "maxlon"])
    for c in ("minlat", "maxlat", "minlon", "maxlon"):
        vals = out[c]
        invalid = np.isnan(vals)
        arr = pa.array(
            np.where(invalid, 0, vals).astype(np.int64), pa.int64(),
            mask=invalid,
        )
        res = res.append_column(c, arr)
    return res
