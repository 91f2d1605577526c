"""Polygon diff filter — engine form of OsmXmlFilter (src/osmxml/filter.rs).

Classifies every diff element into a 3-way verdict against each polygon:

    keep    — geometry evidence inside the EXACT polygon (action kept)
    delete  — evidence only inside the 0.1°-BUFFERED polygon (action
              rewritten to "delete", src/osmxml/filter.rs:231,256,294)
    drop    — no evidence (row absent from output); ways/relations with
              no bbox annotation are silently dropped
              (src/osmxml/filter.rs:238-243,267-272)

One kernel, in process, in numpy.  The reference
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
way and the store point of every node it can probe.  `diff_closure`
keeps it on the resolver, so the bbox pass (`stages/bbox.py`),
`closure_node_ids` and the filter of one sequence share one walk.
`DiffEvidence` adds what else does not depend on the polygon: new
points, boxes, the old points of the ids in ``node_ids``, and the
inverse edges the sparse kernel follows.

The geometry is one pass over the whole tree, not one per polygon
(the batched many-query join of *Joinable Search Over Multi-Source
Spatial Datasets*, ICDE 2025): a `PolyTreeIndex` over the tree's
polygons (the tile join's STRtree and pair-segmented kernels) takes
one candidate query each for the old points and the new node points,
and refines the pairs (exact PIP, then the chordal point buffer of
GEOS buffer(0.1, 8), src/osmxml/filter.rs:44-56).  Every piece of
evidence starts at such a point hit, so a way or relation row's box
meets the Euclidean box gate (which only gates candidacy) only in the
polygons where the row may reach one, pair by pair
(`DiffEvidence.tree_hits`).

The tree walk (`_tree_rows`) replaces the reference's recursive rayon
fan-out (src/diffs.rs:168-191) with one evidence-kernel call per tree
level (`DiffEvidence.verdicts`; a wide level runs in batches of about
``DiffEvidence.batch_hits`` hits): each polygon reads its parent's
output rows, and a delete verdict on its root path rewrites the
action.  The kernel is sparse, keyed by (polygon, row) and (polygon,
id): every piece of evidence starts at a buffered point hit, so it
only touches rows whose polygon has evidence for them, compacted
rather than masked over the whole diff.  `filter_elements` is the same
pass on a one-polygon tree.  Every diff, whatever its size, runs here
in the calling process; its peak memory is about 1 kB per element of
store plus diff (SCALE.md §2).  The per-row automaton that mirrors the
reference's memo sets is the test oracle (``tests/filter_oracle.py``);
it also pins the reference's store-lookup counts.
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


def _csr(keys: np.ndarray, n: int):
    """(offsets, order): ``keys`` grouped by value in ``range(n)``."""
    order = np.argsort(keys, kind="stable")
    return np.searchsorted(keys[order], np.arange(n + 1)), order


def _csr_rows(off: np.ndarray, sel: np.ndarray):
    """(i, k): for each ``sel[i]``, every flat index ``k`` of its row."""
    n = off[sel + 1] - off[sel]
    i = np.repeat(np.arange(len(sel)), n)
    return i, off[sel][i] + np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)


def _first(n: int, idx: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Per index in ``range(n)``, the MIN of its ``ev``; EV_NONE if none."""
    out = np.full(n, EV_NONE)
    np.minimum.at(out, idx, ev)
    return out


# ---- sparse evidence: (sorted unique keys, values), a key packing
#      (batch polygon, id index) as ``polygon * universe + index``;
#      a key that is absent holds EV_NONE

def _min_by_key(keys: np.ndarray, vals: np.ndarray):
    """The sparse map of the MIN of ``vals`` per key."""
    if not len(keys):
        return keys, vals
    o = np.argsort(keys)
    k = keys[o]
    start = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    return k[start], np.minimum.reduceat(vals[o], start)


def _merge(*maps):
    return _min_by_key(*(np.concatenate(a) for a in zip(*maps)))


def _find(keys: np.ndarray, q: np.ndarray):
    """(i, ok): ``keys[i] == q`` where ``ok``."""
    if not len(keys):
        return np.zeros(len(q), np.int64), np.zeros(len(q), bool)
    i = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return i, keys[i] == q


def _at(ev, q: np.ndarray) -> np.ndarray:
    """The sparse map ``ev`` at keys ``q``."""
    i, ok = _find(ev[0], q)
    return np.where(ok, ev[1][i], EV_NONE) if len(ev[0]) else np.full(len(q), EV_NONE)


def _keys(keys: np.ndarray):
    """The sparse map of a key set (values 0)."""
    return _min_by_key(keys, np.zeros(len(keys), np.int64))


def _carry(ev, off: np.ndarray, dst: np.ndarray, n_from: int, n_to: int):
    """The sparse map ``ev`` over ``range(n_from)`` carried along the
    CSR edges ``off``/``dst`` into ``range(n_to)``, MIN per key."""
    q, u = np.divmod(ev[0], n_from)
    i, k = _csr_rows(off, u)
    return _min_by_key(q[i] * n_to + dst[k], ev[1][i])


def _same(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


_EMPTY_EV = (np.empty(0, np.int64), np.empty(0, np.int64))


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
    member node, with its store point (``found``, ``lat``, ``lon``).

    Built through `diff_closure`, which hands the same closure to the
    bbox pass and the filter; so its arrays are read-only, and a
    consumer that assigned into one would raise."""

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
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def _member_index(self, kind: np.ndarray, ref: np.ndarray) -> np.ndarray:
        return np.where(kind == MTYPE_NODE, np.searchsorted(self.N, ref),
                        len(self.N) + np.searchsorted(self.W, ref))


# the only columns the closure walk reads
CLOSURE_COLUMNS = ("id", "etype", "refs", "members")


def diff_closure(elements: pa.Table, resolver: Resolver) -> DiffClosure:
    """The `DiffClosure` of ``elements`` over ``resolver``, walked once:
    the resolver keeps the last closure built over it, keyed on the
    columns the walk reads, so the bbox pass, `closure_node_ids` and the
    filter of one sequence share one walk (the reference hands one
    OsmCache from the bbox pass to the filter, src/update.rs:122-131).
    A table that differs in any of those columns, or another resolver,
    gets a fresh walk."""
    cols = [elements[c] for c in CLOSURE_COLUMNS]
    if resolver.closure is not None:
        held, closure = resolver.closure
        if all(a.equals(b) for a, b in zip(held, cols)):
            return closure
    closure = DiffClosure(elements, resolver)
    resolver.closure = (cols, closure)
    return closure


class _ByPoly:
    """The items of (polygon, item) pairs grouped by polygon, CSR over
    the tree's polygons, ascending within each polygon."""

    def __init__(self, n_polys: int, poly: np.ndarray, item: np.ndarray):
        o = np.argsort(poly * (int(item.max(initial=0)) + 1) + item)
        self.off = np.searchsorted(poly[o], np.arange(n_polys + 1))
        self.item = item[o]
        self.count = np.diff(self.off)

    def take(self, polys: np.ndarray):
        """(i, item) for every item of ``polys[i]``, ascending."""
        i, k = _csr_rows(self.off, polys)
        return i, self.item[k]


class TreeHits(NamedTuple):
    """The sparse geometry hits of one diff over the polygons of a tree."""

    old_ex: _ByPoly   # closure nodes (``N`` indices): old point in the polygon
    old_bf: _ByPoly   # ... in its chordal buffer
    node_ex: _ByPoly  # node rows (``nrow`` indices): new point in the polygon
    node_bf: _ByPoly  # ... in its chordal buffer
    way_box: _ByPoly  # way rows (``wrow`` indices) that may have evidence: box
    #                   meets the buffered polygon
    rel_box: _ByPoly  # relation rows (``rrow`` indices): box meets the buffered polygon


class DiffEvidence:
    """The polygon-independent part of one diff's filter: its closure
    ``c`` (`diff_closure`), the new points and boxes of its rows, the
    old points of the closure's nodes that are in ``node_ids``, and the
    inverse edges the sparse kernel walks.  A node or way member indexes
    the evidence universe ``[N | W]``."""

    # hits (buffered old and new points, gated way and relation rows)
    # per kernel call: a tree level whose polygons hold more runs in
    # batches of polygons, which bounds the kernel's working arrays
    batch_hits = 1 << 20

    def __init__(self, elements: pa.Table, resolver: Resolver, node_ids: np.ndarray):
        c = self.c = diff_closure(elements, resolver)
        self.n = c.n
        self.nlat = _np(elements["lat"])[c.nrow].astype(np.int64)
        self.nlon = _np(elements["lon"])[c.nrow].astype(np.int64)
        boxed = _np(pc.is_valid(elements["minlat"]))
        self.wboxed, self.rboxed = boxed[c.wrow], boxed[c.rrow]
        self.wbox, self.rbox = ([_np(elements[col].take(rows).fill_null(0)).astype(np.int64)
                                 for col in ("minlon", "minlat", "maxlon", "maxlat")]
                                for rows in (c.wrow, c.rrow))
        found = c.found if node_ids is c.N else c.found & np.isin(c.N, node_ids)
        self.old = np.flatnonzero(found)
        self.old_lon, self.old_lat = c.lon[found], c.lat[found]

        # key universes (at least 1, so a packed key keeps its polygon)
        self.nn, self.nw, self.nr, self.nj, self.nrr = (
            max(len(a), 1) for a in (c.N, c.W, c.R, c.nrow, c.rrow))
        nu = self.nn + self.nw
        # the inverse edges, CSR: node -> its rows, the way rows with it
        # as a new ref, the ways with it as a store ref; way -> its rows;
        # [N | W] -> the relations with it as a store member, the
        # relation rows with it as a diff member; relation -> its rows,
        # the relations and the relation rows with it as a member
        self.node_rows_off, self.node_rows = _csr(c.nrow_u, self.nn)
        self.ref_ways_off, o = _csr(c.wnew_u, self.nn)
        self.ref_ways = c.wnew_row[o]
        self.node_ways_off, o = _csr(c.wst_u, self.nn)
        self.node_ways = np.repeat(np.arange(len(c.W)), np.diff(c.wst_off))[o]
        self.way_rows_off, self.way_rows = _csr(c.wrow_u, self.nw)
        self.leaf_rels_off, o = _csr(c.sleaf, nu)
        self.leaf_rels = c.sleaf_r[o]
        self.leaf_rows_off, o = _csr(c.dleaf, nu)
        self.leaf_rows = c.dleaf_row[o]
        self.rel_rows_off, self.rel_rows = _csr(c.rrow_u, self.nr)
        self.rel_up_off, o = _csr(c.edge_dst, self.nr)
        self.rel_up = c.edge_src[o]
        self.drel_rows_off, o = _csr(c.drel, self.nr)
        self.drel_rows = c.drel_row[o]
        # per way row its new refs, per relation row its diff members
        # (the exploded lists are in row order)
        self.wnew_off = np.searchsorted(c.wnew_row, np.arange(len(c.wrow) + 1))
        self.dleaf_off = np.searchsorted(c.dleaf_row, np.arange(len(c.rrow) + 1))
        self.drel_off = np.searchsorted(c.drel_row, np.arange(len(c.rrow) + 1))

    def tree_hits(self, index: PolyTreeIndex) -> TreeHits:
        """Per polygon of ``index``, its hits over the whole diff, for
        every polygon at once, whatever rows a polygon's parent passes
        on: one candidate query and one pair-segmented refine for the
        old points and the new node points together.  Every piece of
        evidence starts at such a point hit, so only the way and
        relation rows that may reach one in a polygon have their box
        tested against it, in one pair-segmented pass: a way or
        relation box often spans many polygons, and most of those pairs
        could never output."""
        c, nn, nw, nr, nrr = self.c, self.nn, self.nw, self.nr, self.nrr
        nu, n_polys = nn + nw, len(index.polys)
        n_old = len(self.old)
        pi, pk, px = index.point_hits(np.concatenate([self.old_lon, self.nlon]),
                                      np.concatenate([self.old_lat, self.nlat]))
        is_old = pi < n_old
        oi, ok, ox = pi[is_old], pk[is_old], px[is_old]
        ni, nk, nx = pi[~is_old] - n_old, pk[~is_old], px[~is_old]
        node = _keys(np.concatenate([ok * nn + self.old[oi], nk * nn + c.nrow_u[ni]]))
        # ways: a new ref or a store ref with a point hit
        way = _merge(_carry(node, self.ref_ways_off, c.wrow_u[self.ref_ways], nn, nw),
                     _carry(node, self.node_ways_off, self.node_ways, nn, nw))
        # relations: a diff or store member (or one reached through
        # relation members) with a possible hit, where a relation row's
        # own id counts once the row is in; rounds until no row joins
        p, w = np.divmod(way[0], nw)
        leaf = _keys(np.concatenate([node[0] // nn * nu + node[0] % nn, p * nu + nn + w]))
        src = _carry(leaf, self.leaf_rels_off, self.leaf_rels, nu, nr)
        rows = first = _carry(leaf, self.leaf_rows_off, self.leaf_rows, nu, nrr)
        while True:
            q, jr = np.divmod(rows[0], nrr)
            reach = self._reach_min(_merge(src, _keys(q * nr + c.rrow_u[jr])))
            nxt = _merge(first, _carry(reach, self.rel_rows_off, self.rel_rows, nr, nrr),
                         _carry(reach, self.drel_rows_off, self.drel_rows, nr, nrr))
            if _same(nxt, rows):
                break
            rows = nxt

        # one box gate for both: the way rows of those ways, the
        # relation rows, each with a box
        i, k = _csr_rows(self.way_rows_off, w)
        p, jw = p[i], self.way_rows[k]
        p, jw = p[self.wboxed[jw]], jw[self.wboxed[jw]]
        q, jr = q[self.rboxed[jr]], jr[self.rboxed[jr]]
        gate = index.box_pair_hits(*(np.concatenate([wb[jw], rb[jr]])
                                     for wb, rb in zip(self.wbox, self.rbox)),
                                   np.concatenate([p, q]))
        wg, rg = gate[:len(jw)], gate[len(jw):]
        return TreeHits(
            _ByPoly(n_polys, ok[ox], self.old[oi[ox]]), _ByPoly(n_polys, ok, self.old[oi]),
            _ByPoly(n_polys, nk[nx], ni[nx]), _ByPoly(n_polys, nk, ni),
            _ByPoly(n_polys, p[wg], jw[wg]), _ByPoly(n_polys, q[rg], jr[rg]),
        )

    def _reach_min(self, ev):
        """``ev`` over ``R`` minimized over the relations each reaches
        through store relation members (the reference's cycle guard
        drops only revisits, so any reachable relation counts)."""
        while True:
            nxt = _merge(ev, _carry(ev, self.rel_up_off, self.rel_up, self.nr, self.nr))
            if _same(nxt, ev):
                return ev
            ev = nxt

    def batches(self, polys: np.ndarray, hits: TreeHits) -> list[np.ndarray]:
        """``polys`` cut into runs of about ``batch_hits`` hits."""
        if not len(polys):
            return []
        cum = np.cumsum(sum(h.count[polys] for h in (hits.old_bf, hits.node_bf,
                                                    hits.way_box, hits.rel_box)))
        cuts = np.searchsorted(cum, np.arange(1, -(-int(cum[-1]) // self.batch_hits))
                               * self.batch_hits) + 1
        return [b for b in np.split(polys, np.unique(cuts)) if len(b)]

    def verdicts(self, hits: TreeHits, polys: np.ndarray, live):
        """(i, row, code) of every KEEP or DELETE row of the polygons
        ``polys`` (tree indices; ``i`` indexes ``polys``), each over the
        rows ``live(i, rows)`` lets it read; every other row DROPs and
        memoizes nothing.  Every map is sparse, keyed (i, id): all
        evidence starts at a buffered point hit, so a node row is a
        candidate only where its polygon has evidence for its id, and a
        way or relation row only where ``hits`` gates it (its box meets
        the polygon; for a way, a ref of its id has a point hit).  The
        arrays scale with the hits, not with polygons × diff."""
        c, nn, nw, nr, nj = self.c, self.nn, self.nw, self.nr, self.nj
        nu = nn + nw
        out = []

        # nodes: buffered evidence from old points and live new points,
        # then every live row of an id that has some
        q, j = hits.node_bf.take(polys)
        ok = live(q, c.nrow[j])
        q, j = q[ok], j[ok]
        oq, ou = hits.old_bf.take(polys)
        bf = _min_by_key(np.concatenate([oq * nn + ou, q * nn + c.nrow_u[j]]),
                         np.concatenate([np.full(len(oq), EV_OLD), c.nrow[j]]))
        bq, bu = np.divmod(bf[0], nn)
        i, k = _csr_rows(self.node_rows_off, bu)
        q, j = bq[i], self.node_rows[k]
        rows = c.nrow[j]
        ok = live(q, rows)
        i, q, j, rows = i[ok], q[ok], j[ok], rows[ok]
        eq, ej = hits.node_ex.take(polys)
        new_ex = _find(eq * nj + ej, q * nj + j)[1]
        keep, event = node_ladder(bf[1][i], new_ex, rows)
        out.append((q, rows, verdict_codes(keep, event)))
        eq, eu = hits.old_ex.take(polys)
        ex = _min_by_key(np.concatenate([eq * nn + eu, q[keep] * nn + c.nrow_u[j[keep]]]),
                         np.concatenate([np.full(len(eq), EV_OLD), rows[keep]]))

        # ways: the live rows that may have evidence and whose box
        # meets the polygon
        st_ex, st_bf = (_carry(e, self.node_ways_off, self.node_ways, nn, nw) for e in (ex, bf))
        q, jw = hits.way_box.take(polys)
        rows = c.wrow[jw]
        ok = live(q, rows)
        q, jw, rows = q[ok], jw[ok], rows[ok]
        wkey = q * nw + c.wrow_u[jw]
        i, k = _csr_rows(self.wnew_off, jw)
        new_ex_ev, new_bf_ev = (_first(len(jw), i, _at(e, q[i] * nn + c.wnew_u[k]))
                                for e in (ex, bf))
        buf_ev = np.minimum(new_bf_ev, _at(st_bf, wkey))
        keep, event = ladder(True, new_ex_ev, buf_ev, rows)
        # the first keep-or-delete row also memoizes the id for its
        # later rows; it is an event without that term
        first_event = _min_by_key(wkey[event], rows[event])
        keep, event = ladder(True, new_ex_ev, np.minimum(buf_ev, _at(first_event, wkey)), rows)
        out.append((q, rows, verdict_codes(keep, event)))
        first_keep = _min_by_key(wkey[keep], rows[keep])

        # relations: the live rows whose box meets the polygon
        q, jr = hits.rel_box.take(polys)
        rows = c.rrow[jr]
        ok = live(q, rows)
        q, jr, rows = q[ok], jr[ok], rows[ok]
        if len(q):
            def leaves(node_ev, way_ev):
                """Node and way evidence as one map over ``[N | W]``."""
                wq, w = np.divmod(way_ev[0], nw)
                return _min_by_key(np.concatenate([node_ev[0] // nn * nu + node_ev[0] % nn,
                                                   wq * nu + nn + w]),
                                   np.concatenate([node_ev[1], way_ev[1]]))

            ex = leaves(ex, _merge(st_ex, first_keep))
            bf = leaves(bf, _merge(st_bf, first_event))
            rkey = q * nr + c.rrow_u[jr]
            i, k = _csr_rows(self.dleaf_off, jr)
            dm_ex, dm_bf = (_first(len(jr), i, _at(e, q[i] * nu + c.dleaf[k])) for e in (ex, bf))
            sl_ex, sl_bf = (_carry(e, self.leaf_rels_off, self.leaf_rels, nu, nr)
                            for e in (ex, bf))
            di, k = _csr_rows(self.drel_off, jr)
            dkey = q[di] * nr + c.drel[k]
            first_keep = first_event = _EMPTY_EV
            for _ in range(REL_ROUNDS_CAP):
                r_ex = self._reach_min(_merge(sl_ex, first_keep))
                r_bf = self._reach_min(_merge(sl_bf, first_event))
                keep, event = ladder(
                    True,
                    np.minimum(dm_ex, _first(len(jr), di, _at(r_ex, dkey))),
                    np.minimum.reduce([dm_bf, _first(len(jr), di, _at(r_bf, dkey)),
                                       _at(r_bf, rkey)]),
                    rows,
                )
                nk = _min_by_key(rkey[keep], rows[keep])
                ne = _min_by_key(rkey[event], rows[event])
                if _same(nk, first_keep) and _same(ne, first_event):
                    break
                first_keep, first_event = nk, ne
            else:
                raise FixpointCapError(
                    f"filter relation fixpoint did not converge within "
                    f"REL_ROUNDS_CAP={REL_ROUNDS_CAP} rounds (earlier-row "
                    f"relation memo chain deeper than the cap)"
                )
            out.append((q, rows, verdict_codes(keep, event)))

        q, rows, v = (np.concatenate(a) for a in zip(*out))
        kept = v != DROP
        return q[kept], rows[kept], v[kept]


def _levels(paths: list[str], tree_parent: dict[str, str | None]):
    """(up, depth) per polygon: its parent's index (-1 at the top) and
    its depth (0 at the top).  A polygon whose parent path carries no
    polygon of the tree reads no rows, nor do its descendants: depth -1."""
    at = {p: i for i, p in enumerate(paths)}
    up = np.array([-1 if tree_parent.get(p) is None else at.get(tree_parent[p], -2)
                   for p in paths], np.int64)
    depth = np.full(len(paths), -1)
    level, d = np.flatnonzero(up == -1), 0
    while len(level):
        depth[level] = d
        level, d = np.flatnonzero(np.isin(up, level)), d + 1
    return up, depth


def _tree_rows(elements, tree_polys, tree_parent, resolver, node_ids):
    """(polygon, row, deleted) of every row each tree polygon outputs,
    ordered by polygon (``tree_polys`` order) then row; ``deleted`` marks
    the rows whose action a delete verdict on the root path rewrites.
    Each polygon filters its parent's output rows (the reference chains
    outputs, src/diffs.rs:174-185), so the tree runs level by level,
    from the top: one kernel call per level (per batch of a wide
    level) over its polygons that have a hit and a parent with output."""
    diff = DiffEvidence(elements, resolver, node_ids)
    index = PolyTreeIndex([(path, mp) for path, _name, mp in tree_polys])
    hits = diff.tree_hits(index)
    up, depth = _levels(index.paths, tree_parent)
    n = diff.n
    # all evidence starts at a buffered point hit: a polygon with none
    # drops every row
    hit = (hits.old_bf.count + hits.node_bf.count) > 0
    out = [(np.empty(0, np.int64),) * 2 + (np.empty(0, bool),)]
    for d in range(depth.max(initial=-1) + 1):
        prev_poly, prev_row, prev_del = out[-1]
        prev_key = prev_poly * n + prev_row  # sorted: by polygon, then row
        has_out = _mask(len(up), prev_poly)
        polys = np.flatnonzero((depth == d) & hit & ((up < 0) | has_out[np.maximum(up, 0)]))
        level = [out[0]]
        for batch in diff.batches(polys, hits):
            parent = up[batch]

            def live(i, rows, parent=parent):
                p = parent[i]
                return (p < 0) | _find(prev_key, p * n + rows)[1]

            i, rows, v = diff.verdicts(hits, batch, live)
            k, found = _find(prev_key, parent[i] * n + rows)
            dele = v == DELETE
            dele[found] |= prev_del[k[found]]
            level.append((batch[i], rows, dele))
        poly, rows, dele = (np.concatenate(a) for a in zip(*level))
        o = np.argsort(poly * n + rows)
        out.append((poly[o], rows[o], dele[o]))
    poly, rows, dele = (np.concatenate(a) for a in zip(*out))
    o = np.argsort(poly * n + rows)
    return poly[o], rows[o], dele[o]


def filter_elements(
    elements: pa.Table,
    mp: MultiPolygon,
    resolver: Resolver,
    node_ids: np.ndarray,
) -> pa.Table:
    """One polygon filter (a one-polygon tree): returns kept+deleted
    rows with the action rewrite applied (the engine's
    .osc-equivalent output)."""
    _poly, rows, deleted = _tree_rows(elements, [(".", ".", mp)], {}, resolver, node_ids)
    sub = elements.take(rows)
    return sub.set_column(
        sub.schema.get_field_index("action"), "action",
        pc.if_else(pa.array(deleted), "delete", sub["action"]),
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
    poly, rows, deleted = _tree_rows(elements, tree_polys, tree_parent, resolver, node_ids)
    take = pa.array(rows)
    paths = np.asarray([p for p, _n, _mp in tree_polys], object)
    return pa.table(
        {
            "pos": elements["pos"].take(take),
            "etype": elements["etype"].take(take),
            "id": elements["id"].take(take),
            "poly_path": pa.array(paths[poly], pa.string()),
            "action": pc.if_else(pa.array(deleted), "delete", elements["action"].take(take)),
        }
    )


# The benchmark tracer (perfbench/trace.py, MAIN_TARGETS) wraps this
# name to time the tree filter; traced runs fail without it.
filter_tree_parallel = filter_tree
