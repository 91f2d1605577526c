"""Polygon diff filter — engine form of OsmXmlFilter (src/osmxml/filter.rs).

Classifies every diff element into a 3-way verdict against one polygon:

    keep    — geometry evidence inside the EXACT polygon (action kept)
    delete  — evidence only inside the 0.1°-BUFFERED polygon (action
              rewritten to "delete", src/osmxml/filter.rs:231,256,294)
    drop    — no evidence (row absent from output); ways/relations with
              no bbox annotation are silently dropped
              (src/osmxml/filter.rs:238-243,267-272)

One kernel, in process, numpy over the whole diff.  The reference
walks the diff in file order and memoizes evidence per polygon
(`PolyInfo::*_seen_in_poly`, src/osmxml/filter.rs:13-18).  Every memo
set only grows, so "id X is in the memo when row t is probed" is
``ev(X) < t`` for one evidence position per id, with the table row as
the position:

    node  ev = -1 if its OLD store point is inside (ids in ``node_ids``
               only), else the first row whose verdict memoized it
    way   ev = min(store-ref node evidence, first memoizing row)
    rel   ev = min over the relations reachable through store members
               (itself included) of node/way member evidence and
               first memoizing rows

"Memoizing" is keep for the exact sets and keep-or-delete for the
buffered ones.  The verdict ladders (`node_ladder`, `ladder`) turn
evidence into keep/delete.  A relation's verdict feeds the memo that
later relation rows probe, so relation verdicts iterate to a fixpoint
(rounds = longest earlier-row chain + 1, at most ``REL_ROUNDS_CAP``).

`DiffClosure` is the diff's one relation walk: exploded way refs and
relation members, the store members of every relation the walk can
reach (a visited set bounds it; no depth cap), the store refs of every
way and the store point of every node it can probe.  The bbox pass
(`stages/bbox.py`) runs on it too.  `DiffEvidence` adds what else does
not depend on the polygon: new points, boxes, and the old points of
the ids in ``node_ids``.  `PolyTests` tests the geometry of one polygon.

The polygon-tree driver (`filter_tree`) replaces the reference's
recursive rayon fan-out (src/diffs.rs:168-191): each child runs on its
parent's ``live`` rows (a bool mask over the diff), and a ``deleted``
mask carries the parent's action rewrite.  Every diff, whatever its
size, runs here in the calling process; its peak memory is about 1 kB
per element of store plus diff (SCALE.md §2).  The per-row
automaton that mirrors the reference's memo sets is the test oracle
(``tests/filter_oracle.py``); it also pins the reference's store-lookup
counts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geom import (
    BUFFER_DECIMICRO,
    MultiPolygon,
    boxes_intersect_buffered,
    points_in_buffered_chordal,
    points_in_multipolygon,
)
from ..sources.store import Resolver
from .dist import REL_ROUNDS_CAP, FixpointCapError

EV_OLD = np.int64(-1)              # static (old-store) evidence
EV_NONE = np.iinfo(np.int64).max   # no evidence

KEEP, DELETE, DROP = np.int8(0), np.int8(1), np.int8(2)

MTYPE_NODE, MTYPE_WAY, MTYPE_REL = 0, 1, 2


def _mtype_codes(type_str: pa.Array) -> pa.Array:
    """Relation member type strings -> MTYPE_* codes (int8)."""
    return pc.cast(
        pc.if_else(
            pc.equal(type_str, "node"), MTYPE_NODE,
            pc.if_else(pc.equal(type_str, "way"), MTYPE_WAY, MTYPE_REL),
        ),
        pa.int8(),
    )


class PolyTests:
    """The geometry tests of one polygon, pruned to its bbox widened by
    the 0.1° buffer (``BUFFER_DECIMICRO``): the exact polygon and both
    buffers lie inside that rectangle, so a point or box outside it is
    "not in" without a test.

    The point buffer test is chordal (GEOS quadrant-segment parity,
    geom.points_in_buffered_chordal): it matches the reference's
    buffer(0.1, 8), src/osmxml/filter.rs:44-56, so keep/delete
    verdicts agree with the Rust binary even for points in the
    chord/arc gap band.  The bbox gate is Euclidean: it only gates
    candidacy, and Euclidean ⊇ chordal keeps it a valid superset."""

    def __init__(self, mp: MultiPolygon):
        self.mp = mp
        x0, y0, x1, y1 = mp.bbox()
        b = BUFFER_DECIMICRO
        self.window = (x0 - b, y0 - b, x1 + b, y1 + b)

    def points(self, lon: np.ndarray, lat: np.ndarray):
        """-> (in exact, in buffered) bool arrays, one per point."""
        x0, y0, x1, y1 = self.window
        near = np.flatnonzero((lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1))
        ex, bf = np.zeros(len(lon), bool), np.zeros(len(lon), bool)
        ex[near] = points_in_multipolygon(lon[near], lat[near], self.mp)
        bf[near] = points_in_buffered_chordal(lon[near], lat[near], self.mp)
        return ex, bf

    def boxes(self, minlon, minlat, maxlon, maxlat) -> np.ndarray:
        """-> bool array: the box meets the buffered polygon."""
        x0, y0, x1, y1 = self.window
        near = np.flatnonzero(
            (minlon <= x1) & (maxlon >= x0) & (minlat <= y1) & (maxlat >= y0)
        )
        hits = np.zeros(len(minlon), bool)
        hits[near] = boxes_intersect_buffered(
            minlon[near], minlat[near], maxlon[near], maxlat[near], self.mp
        )
        return hits


# ---- verdict ladders (src/osmxml/filter.rs:219-299): ``pos`` is each
#      row's position, ``*_ev`` the evidence positions it probes

def node_ladder(buf_ev, new_ex, pos):
    """update_node -> (keep, keep-or-delete).  In the buffered polygon
    iff the id's buffered evidence is at or before this row (``<=``:
    the row's own new point counts); keep iff its new point is in the
    exact polygon too."""
    event = buf_ev <= pos
    return event & new_ex, event


def ladder(gate, ex_ev, buf_ev, pos):
    """update_way / update_relation -> (keep, keep-or-delete): past the
    bbox gate, keep on exact evidence from an earlier row, else delete
    on buffered evidence from an earlier row."""
    keep = gate & (ex_ev < pos)
    return keep, keep | (gate & (buf_ev < pos))


def verdict_codes(keep, event) -> np.ndarray:
    return np.where(keep, KEEP, np.where(event, DELETE, DROP)).astype(np.int8)


def _np(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False)


def _exploded(lists) -> tuple[np.ndarray, pa.Array]:
    """(list index, value) of every value of an Arrow list column."""
    lists = lists.combine_chunks()
    return _np(pc.list_parent_indices(lists)), pc.list_flatten(lists)


def _first(n: int, idx: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Per index in ``range(n)``, the MIN of its ``ev``; EV_NONE if none."""
    out = np.full(n, EV_NONE)
    np.minimum.at(out, idx, ev)
    return out


class DiffClosure:
    """The store closure of one diff, walked once: every relation, way
    and node id the bbox pass or a filter verdict can probe, with the
    store edges between them.  Ids are indices into the sorted
    universes ``N`` (node ids), ``W`` (way ids) and ``R`` (relation
    ids); a node or way member indexes ``[N | W]`` (``_member_index``),
    a relation member ``R``.

    The relation walk starts from the diff's relations and relation
    members and follows store relation members breadth-first; the
    visited set ``R`` bounds it, so cycles and any nesting depth end
    after one read per relation.  ``W`` is every diff way, member way
    and store member way, with its store refs as CSR (``wst_off``,
    ``wst_u``); ``N`` every diff node, diff or store way ref and
    member node, with its store point (``found``, ``lat``, ``lon``)."""

    def __init__(self, elements: pa.Table, resolver: Resolver):
        self.n = elements.num_rows
        ids = _np(elements["id"]).astype(np.int64)
        is_node, is_way = (_np(pc.equal(elements["etype"], t).fill_null(False))
                           for t in ("node", "way"))
        self.nrow = np.flatnonzero(is_node)
        self.wrow = np.flatnonzero(is_way)
        self.rrow = np.flatnonzero(~is_node & ~is_way)
        self.wnew_row, wnew = _exploded(elements["refs"].take(self.wrow))
        wnew = _np(wnew).astype(np.int64)
        dm_row, dm = _exploded(elements["members"].take(self.rrow))
        dm_kind = _np(_mtype_codes(pc.struct_field(dm, "type")))
        dm_ref = _np(pc.struct_field(dm, "ref")).astype(np.int64)

        src, kind, ref = [], [], []
        front = np.unique(np.concatenate([ids[self.rrow], dm_ref[dm_kind == MTYPE_REL]]))
        seen = front
        while len(front):
            off, types, refs = resolver.relation_members(front)
            k = _np(_mtype_codes(types))
            src.append(np.repeat(front, np.diff(off)))
            kind.append(k)
            ref.append(refs)
            front = np.setdiff1d(refs[k == MTYPE_REL], seen)
            seen = np.union1d(seen, front)
        self.R = seen
        st_src, st_kind, st_ref = (np.concatenate(a) if a else np.empty(0, np.int64)
                                   for a in (src, kind, ref))
        self.W = np.unique(np.concatenate(
            [ids[self.wrow], dm_ref[dm_kind == MTYPE_WAY], st_ref[st_kind == MTYPE_WAY]]
        ))
        self.wst_off, wst = resolver.way_refs(self.W)
        nodes = [ids[self.nrow], wnew, wst,
                 dm_ref[dm_kind == MTYPE_NODE], st_ref[st_kind == MTYPE_NODE]]
        # the inverse indexes the big parts faster than a searchsorted
        self.N, inv = np.unique(np.concatenate(nodes), return_inverse=True)
        self.nrow_u, self.wnew_u, self.wst_u = np.split(
            inv, np.cumsum([len(a) for a in nodes[:3]]))[:3]
        self.found, self.lat, self.lon = resolver.node_points(self.N)

        self.wrow_u = np.searchsorted(self.W, ids[self.wrow])
        self.rrow_u = np.searchsorted(self.R, ids[self.rrow])
        # diff members per relation row and store members per R: the
        # node/way leaves, and the relation edges
        leaf = dm_kind != MTYPE_REL
        self.dleaf_row, self.dleaf = dm_row[leaf], self._member_index(dm_kind[leaf], dm_ref[leaf])
        self.drel_row, self.drel = dm_row[~leaf], np.searchsorted(self.R, dm_ref[~leaf])
        st_u, leaf = np.searchsorted(self.R, st_src), st_kind != MTYPE_REL
        self.sleaf_r, self.sleaf = st_u[leaf], self._member_index(st_kind[leaf], st_ref[leaf])
        self.edge_src, self.edge_dst = st_u[~leaf], np.searchsorted(self.R, st_ref[~leaf])

    def _member_index(self, kind: np.ndarray, ref: np.ndarray) -> np.ndarray:
        return np.where(kind == MTYPE_NODE, np.searchsorted(self.N, ref),
                        len(self.N) + np.searchsorted(self.W, ref))


class DiffEvidence(DiffClosure):
    """The polygon-independent part of one diff's filter: its closure,
    the new points and boxes of its rows, and the old points of the
    closure's nodes that are in ``node_ids``.  A node or way member
    indexes the evidence vector ``[node ev | way ev]``."""

    def __init__(self, elements: pa.Table, resolver: Resolver, node_ids: np.ndarray):
        super().__init__(elements, resolver)
        self.nlat = _np(elements["lat"])[self.nrow].astype(np.int64)
        self.nlon = _np(elements["lon"])[self.nrow].astype(np.int64)
        boxed = _np(pc.is_valid(elements["minlat"]))
        boxed[self.nrow] = False
        self.boxrow = np.flatnonzero(boxed)
        self.boxes = [_np(elements[c].take(self.boxrow)).astype(np.int64)
                      for c in ("minlon", "minlat", "maxlon", "maxlat")]
        found = self.found & np.isin(self.N, node_ids)
        self.old = np.flatnonzero(found)
        self.old_lon, self.old_lat = self.lon[found], self.lat[found]
        self.wst_w = np.repeat(np.arange(len(self.W)), np.diff(self.wst_off))

    def _reach_min(self, base: np.ndarray) -> np.ndarray:
        """``base`` minimized over the relations each reaches through
        store relation members (the reference's cycle guard drops only
        revisits, so any reachable relation counts)."""
        val = base.copy()
        while len(self.edge_src):
            prev = val.copy()
            np.minimum.at(val, self.edge_src, val[self.edge_dst])
            if np.array_equal(val, prev):
                break
        return val

    def verdicts(self, tests: PolyTests, live: np.ndarray) -> np.ndarray:
        """int8 verdict per row (KEEP / DELETE / DROP) for the polygon of
        ``tests`` over the rows where ``live`` is set; other rows DROP
        and memoize nothing."""
        v = np.full(self.n, DROP, np.int8)
        ex, bf = np.full(len(self.N), EV_NONE), np.full(len(self.N), EV_NONE)
        old_ex, old_bf = tests.points(self.old_lon, self.old_lat)
        ex[self.old[old_ex]] = EV_OLD
        bf[self.old[old_bf]] = EV_OLD

        m = live[self.nrow]
        rows, u = self.nrow[m], self.nrow_u[m]
        new_ex, new_bf = tests.points(self.nlon[m], self.nlat[m])
        np.minimum.at(bf, u[new_bf], rows[new_bf])
        keep, event = node_ladder(bf[u], new_ex, rows)
        np.minimum.at(ex, u[keep], rows[keep])
        v[rows] = verdict_codes(keep, event)

        gate = np.zeros(self.n, bool)
        m = live[self.boxrow]
        gate[self.boxrow[m]] = tests.boxes(*(c[m] for c in self.boxes))

        st_ex, st_bf = (_first(len(self.W), self.wst_w, e[self.wst_u]) for e in (ex, bf))
        m = live[self.wrow]
        rows, u = self.wrow[m], self.wrow_u[m]
        new_ex_ev, new_bf_ev = (_first(len(self.wrow), self.wnew_row, e[self.wnew_u])[m]
                                for e in (ex, bf))
        buf_ev = np.minimum(new_bf_ev, st_bf[u])
        keep, event = ladder(gate[rows], new_ex_ev, buf_ev, rows)
        # the first keep-or-delete row also memoizes the id for its
        # later rows; it is an event without that term
        first_event = _first(len(self.W), u[event], rows[event])
        keep, event = ladder(gate[rows], new_ex_ev, np.minimum(buf_ev, first_event[u]), rows)
        v[rows] = verdict_codes(keep, event)
        ex = np.concatenate([ex, np.minimum(st_ex, _first(len(self.W), u[keep], rows[keep]))])
        bf = np.concatenate([bf, np.minimum(st_bf, first_event)])

        m = live[self.rrow]
        if not m.any():
            return v
        rows, u, g = self.rrow[m], self.rrow_u[m], gate[self.rrow[m]]
        n_r = len(self.rrow)
        dm_ex, dm_bf = (_first(n_r, self.dleaf_row, e[self.dleaf])[m] for e in (ex, bf))
        sl_ex, sl_bf = (_first(len(self.R), self.sleaf_r, e[self.sleaf]) for e in (ex, bf))
        first_keep = first_event = np.full(len(self.R), EV_NONE)
        for _ in range(REL_ROUNDS_CAP):
            r_ex = self._reach_min(np.minimum(sl_ex, first_keep))
            r_bf = self._reach_min(np.minimum(sl_bf, first_event))
            keep, event = ladder(
                g,
                np.minimum(dm_ex, _first(n_r, self.drel_row, r_ex[self.drel])[m]),
                np.minimum.reduce([dm_bf, _first(n_r, self.drel_row, r_bf[self.drel])[m], r_bf[u]]),
                rows,
            )
            nk = _first(len(self.R), u[keep], rows[keep])
            ne = _first(len(self.R), u[event], rows[event])
            if np.array_equal(nk, first_keep) and np.array_equal(ne, first_event):
                break
            first_keep, first_event = nk, ne
        else:
            raise FixpointCapError(
                f"filter relation fixpoint did not converge within "
                f"REL_ROUNDS_CAP={REL_ROUNDS_CAP} rounds (earlier-row "
                f"relation memo chain deeper than the cap)"
            )
        v[rows] = verdict_codes(keep, event)
        return v


def filter_elements(
    elements: pa.Table,
    mp: MultiPolygon,
    resolver: Resolver,
    node_ids: np.ndarray,
) -> pa.Table:
    """One polygon filter: returns kept+deleted rows with the action
    rewrite applied (the engine's .osc-equivalent output)."""
    v = DiffEvidence(elements, resolver, node_ids).verdicts(
        PolyTests(mp), np.ones(elements.num_rows, bool)
    )
    rows = np.flatnonzero(v != DROP)
    sub = elements.take(rows)
    return sub.set_column(
        sub.schema.get_field_index("action"), "action",
        pc.if_else(pa.array(v[rows] == DELETE), "delete", sub["action"]),
    )


def filter_tree(
    elements: pa.Table,
    tree_polys: list[tuple[str, str, MultiPolygon]],
    tree_parent: dict[str, str | None],
    resolver: Resolver,
    node_ids: np.ndarray,
) -> pa.Table:
    """Multi-label assignment over a polygon tree.

    Each tree node with a polygon filters its parent's OUTPUT rows
    (reference chains outputs, src/diffs.rs:174-185).  Returns an
    assignments table (pos, etype, id, poly_path, action) — one row per
    (element, tree path) the element survives to, exactly the union of
    the per-path .osc outputs."""
    diff = DiffEvidence(elements, resolver, node_ids)
    none = np.zeros(diff.n, bool)
    live, deleted = {None: ~none}, {None: none}
    for path, _name, mp in tree_polys:  # topological (parents first)
        parent = tree_parent.get(path)
        rows = live.get(parent, none)
        v = diff.verdicts(PolyTests(mp), rows) if rows.any() else np.full(diff.n, DROP)
        live[path] = v != DROP
        deleted[path] = deleted.get(parent, none) | (v == DELETE)
    paths = np.array([p for p, _n, _mp in tree_polys], object)
    out = np.stack([live[p] for p in paths] or [none])
    which, row = np.nonzero(out)
    take = pa.array(row)
    return pa.table(
        {
            "pos": elements["pos"].take(take),
            "etype": elements["etype"].take(take),
            "id": elements["id"].take(take),
            "poly_path": pa.array(paths[which], pa.string()),
            "action": pc.if_else(
                pa.array(np.stack([deleted[p] for p in paths] or [none])[out]),
                "delete", elements["action"].take(take),
            ),
        }
    )


# The benchmark tracer (perfbench/trace.py, MAIN_TARGETS) wraps this
# name to time the tree filter; traced runs fail without it.
filter_tree_parallel = filter_tree
