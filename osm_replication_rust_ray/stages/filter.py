"""Polygon diff filter — engine form of OsmXmlFilter (src/osmxml/filter.rs).

Classifies every diff element into a 3-way verdict against each polygon:

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
the ids in ``node_ids``.

The geometry is one pass over the whole tree, not one per polygon
(the batched many-query join of *Joinable Search Over Multi-Source
Spatial Datasets*, ICDE 2025): a `PolyTreeIndex` over the tree's
polygons (the tile join's STRtree and pair-segmented kernels) takes
one candidate query each for the old points, the new node points and
the row boxes, refines the pairs (exact PIP, the chordal point buffer
of GEOS buffer(0.1, 8), src/osmxml/filter.rs:44-56, and the Euclidean
box gate, which only gates candidacy), and `DiffEvidence.tree_hits`
groups the sparse hits by polygon (`PolyHits`).

The polygon-tree driver (`filter_tree`) replaces the reference's
recursive rayon fan-out (src/diffs.rs:168-191): each child runs the
evidence kernel (`DiffEvidence.verdicts`) with its hits on its
parent's ``live`` rows (a bool mask over the diff), and a ``deleted``
mask carries the parent's action rewrite; a polygon with no hit
drops every row without a kernel run.  `filter_elements` is the same
pass on a one-polygon tree.  Every diff, whatever its
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

from typing import NamedTuple

from ..geom import MultiPolygon
from ..sources.store import Resolver
from .dist import REL_ROUNDS_CAP, FixpointCapError
from .spatial_join import PolyTreeIndex

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


def _mask(n: int, idx: np.ndarray) -> np.ndarray:
    out = np.zeros(n, bool)
    out[idx] = True
    return out


def _split(n_polys: int, poly: np.ndarray, item: np.ndarray) -> list[np.ndarray]:
    """``item`` grouped by ``poly``: one array per polygon in ``range(n_polys)``."""
    o = np.argsort(poly, kind="stable")
    return np.split(item[o], np.searchsorted(poly[o], np.arange(1, n_polys)))


class PolyHits(NamedTuple):
    """One polygon's sparse geometry hits over one diff."""

    old_ex: np.ndarray   # closure nodes (``N`` indices): old point in the polygon
    old_bf: np.ndarray   # ... in its chordal buffer
    node_ex: np.ndarray  # node rows (``nrow`` indices): new point in the polygon
    node_bf: np.ndarray  # ... in its chordal buffer
    box: np.ndarray      # boxed rows (``boxrow`` indices): box meets the buffered polygon


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

    def tree_hits(self, index: PolyTreeIndex) -> list[PolyHits]:
        """Per polygon of ``index``, its hits over the whole diff: one
        candidate query and one pair-segmented refine for each input
        (old points, new node points, row boxes), for every polygon at
        once, whatever rows a polygon's parent passes on."""
        n_polys = len(index.polys)
        oi, ok, ox = index.point_hits(self.old_lon, self.old_lat)
        ni, nk, nx = index.point_hits(self.nlon, self.nlat)
        bi, bk = index.box_hits(*self.boxes)
        return [PolyHits(*h) for h in zip(
            _split(n_polys, ok[ox], self.old[oi[ox]]), _split(n_polys, ok, self.old[oi]),
            _split(n_polys, nk[nx], ni[nx]), _split(n_polys, nk, ni),
            _split(n_polys, bk, bi),
        )]

    def verdicts(self, hits: PolyHits, live: np.ndarray) -> np.ndarray:
        """int8 verdict per row (KEEP / DELETE / DROP) for the polygon of
        ``hits`` over the rows where ``live`` is set; other rows DROP
        and memoize nothing."""
        v = np.full(self.n, DROP, np.int8)
        ex, bf = np.full(len(self.N), EV_NONE), np.full(len(self.N), EV_NONE)
        ex[hits.old_ex] = EV_OLD
        bf[hits.old_bf] = EV_OLD

        m = live[self.nrow]
        rows, u = self.nrow[m], self.nrow_u[m]
        new_ex = _mask(len(self.nrow), hits.node_ex)[m]
        new_bf = _mask(len(self.nrow), hits.node_bf)[m]
        np.minimum.at(bf, u[new_bf], rows[new_bf])
        keep, event = node_ladder(bf[u], new_ex, rows)
        np.minimum.at(ex, u[keep], rows[keep])
        v[rows] = verdict_codes(keep, event)

        # read at live rows only, so hits on other rows do not matter
        gate = _mask(self.n, self.boxrow[hits.box])

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


def _tree_masks(elements, tree_polys, tree_parent, resolver, node_ids):
    """Per tree polygon, in ``tree_polys`` order: (live, deleted) bool
    row masks — the rows it outputs, and those whose action a delete
    verdict on its root path rewrites.  Each polygon filters its
    parent's output rows (the reference chains outputs,
    src/diffs.rs:174-185)."""
    diff = DiffEvidence(elements, resolver, node_ids)
    index = PolyTreeIndex([(path, mp) for path, _name, mp in tree_polys])
    none = np.zeros(diff.n, bool)
    live, deleted = {None: ~none}, {None: none}
    for (path, _name, _mp), hits in zip(tree_polys, diff.tree_hits(index)):
        parent = tree_parent.get(path)  # topological order: parents first
        rows = live.get(parent, none)
        # no buffered hit at all: every row drops
        any_hit = len(hits.old_bf) or len(hits.node_bf) or len(hits.box)
        v = diff.verdicts(hits, rows) if any_hit and rows.any() else np.full(diff.n, DROP)
        live[path] = v != DROP
        deleted[path] = deleted.get(parent, none) | (v == DELETE)
    return [(live[p], deleted[p]) for p, _n, _mp in tree_polys]


def filter_elements(
    elements: pa.Table,
    mp: MultiPolygon,
    resolver: Resolver,
    node_ids: np.ndarray,
) -> pa.Table:
    """One polygon filter (a one-polygon tree): returns kept+deleted
    rows with the action rewrite applied (the engine's
    .osc-equivalent output)."""
    (live, deleted), = _tree_masks(elements, [(".", ".", mp)], {}, resolver, node_ids)
    rows = np.flatnonzero(live)
    sub = elements.take(rows)
    return sub.set_column(
        sub.schema.get_field_index("action"), "action",
        pc.if_else(pa.array(deleted[rows]), "delete", sub["action"]),
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
    the per-path .osc outputs, in tree order and then row order."""
    masks = _tree_masks(elements, tree_polys, tree_parent, resolver, node_ids)
    rows = [np.flatnonzero(live) for live, _d in masks]
    take = pa.array(np.concatenate(rows) if rows else np.empty(0, np.int64))
    paths = [p for p, _n, _mp in tree_polys]
    which = np.repeat(np.arange(len(paths)), [len(r) for r in rows])
    dele = np.concatenate([d[r] for (_l, d), r in zip(masks, rows)]) if rows else np.empty(0, bool)
    return pa.table(
        {
            "pos": elements["pos"].take(take),
            "etype": elements["etype"].take(take),
            "id": elements["id"].take(take),
            "poly_path": pa.array(np.asarray(paths, object)[which], pa.string()),
            "action": pc.if_else(pa.array(dele), "delete", elements["action"].take(take)),
        }
    )


# The benchmark tracer (perfbench/trace.py, MAIN_TARGETS) wraps this
# name to time the tree filter; traced runs fail without it.
filter_tree_parallel = filter_tree
