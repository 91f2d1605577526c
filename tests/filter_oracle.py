"""The per-row evidence automaton of OsmXmlFilter (src/osmxml/filter.rs),
kept as the test oracle of the filter kernel (`stages/filter.py`), the
one filter every diff runs through.

It walks the diff in table order with the reference's sequential memo
sets (`PolyInfo::*_seen_in_poly`, src/osmxml/filter.rs:13-18) and its
`Iterator::any` short-circuit, consuming precomputed geometry
memberships, so over all rows (`filter_verdicts`) it reproduces the
reference's store-lookup counts exactly (50 nodes / 7 ways / 2
relations on the saint_barthelemy fixture, src/osmxml/filter.rs:390-392).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from osm_replication_rust_ray.geom import (
    MultiPolygon,
    boxes_intersect_buffered,
    points_in_buffered_chordal,
    points_in_multipolygon,
)
from osm_replication_rust_ray.sources.store import Resolver


@dataclass
class PolyMembership:
    """Precomputed geometry memberships for one polygon over one diff."""

    # diff node NEW positions, keyed by row position in the elements table
    new_in_exact: dict[int, bool]
    new_in_buffered: dict[int, bool]
    # store OLD node positions, keyed by node id (only ids found in store)
    old_in_exact: dict[int, bool]
    old_in_buffered: dict[int, bool]
    # bbox-vs-buffered-poly gate per row position (ways/relations with bbox)
    bbox_hits_buffered: dict[int, bool]


def precompute_membership(
    elements: pa.Table,
    mp: MultiPolygon,
    resolver: Resolver,
    node_ids: np.ndarray,
) -> PolyMembership:
    """Vectorized PIP + bbox tests for one polygon, by geom's
    per-polygon predicates (not the filter's tree-wide pair kernels):
    exact PIP, the chordal point buffer (GEOS buffer(0.1, 8),
    src/osmxml/filter.rs:44-56) and the Euclidean box gate.

    ``node_ids``: the needed-id closure (diff node ids ∪ way refs ∪
    relation-member closure) whose OLD store positions may be probed.

    The maps hold only the True entries; a missing key reads "not in"."""

    def points(keys, lon, lat):
        ex = points_in_multipolygon(lon, lat, mp)
        bf = points_in_buffered_chordal(lon, lat, mp)
        return dict.fromkeys(keys[ex].tolist(), True), dict.fromkeys(keys[bf].tolist(), True)

    etype = np.asarray(elements["etype"])
    pos = elements["pos"].to_numpy(zero_copy_only=False)
    nmask = etype == "node"
    lat = elements["lat"].to_numpy(zero_copy_only=False)[nmask].astype(np.int64)
    lon = elements["lon"].to_numpy(zero_copy_only=False)[nmask].astype(np.int64)
    new_in_exact, new_in_buffered = points(pos[nmask], lon, lat)
    # old store positions (only ids found in the store)
    node_ids = np.asarray(node_ids, np.int64)
    found, olat, olon = resolver.node_points(node_ids)  # a bulk read, not a probe
    old_in_exact, old_in_buffered = points(node_ids[found], olon[found], olat[found])
    # bbox gate for ways/relations that carry a bbox annotation
    minlat = elements["minlat"].to_numpy(zero_copy_only=False)
    wr = ~nmask & ~np.isnan(minlat.astype(np.float64))

    def col(name):
        return elements[name].to_numpy(zero_copy_only=False)[wr].astype(np.int64)

    hits = boxes_intersect_buffered(col("minlon"), col("minlat"), col("maxlon"), col("maxlat"), mp)
    bbox_hits = dict.fromkeys(pos[wr][hits].tolist(), True)
    return PolyMembership(new_in_exact, new_in_buffered, old_in_exact, old_in_buffered, bbox_hits)


@dataclass
class _PolySets:
    """One PolyInfo's memo sets (src/osmxml/filter.rs:13-18)."""

    nodes_seen: set = field(default_factory=set)
    ways_seen: set = field(default_factory=set)
    relations_seen: set = field(default_factory=set)


class _Automaton:
    """Sequential evidence machine for ONE polygon over one diff's rows.

    ``exact=True`` consults exact-poly memberships, else buffered."""

    def __init__(self, memb: PolyMembership, resolver: Resolver):
        self.memb = memb
        self.resolver = resolver
        self.exact_sets = _PolySets()
        self.buff_sets = _PolySets()

    # ---- PolyInfo::node_in_poly (src/osmxml/filter.rs:118-131)
    def node_in_poly(self, sets: _PolySets, old_map: dict, nid: int) -> bool:
        if nid in sets.nodes_seen:
            return True
        self.resolver.num_read_nodes += 1
        hit = old_map.get(nid)  # None = store miss or outside
        if hit:
            sets.nodes_seen.add(nid)
            return True
        return False

    def nodes_in_poly(self, sets, old_map, refs) -> bool:
        return any(self.node_in_poly(sets, old_map, int(r)) for r in refs)

    # ---- PolyInfo::way_in_poly (src/osmxml/filter.rs:135-148)
    def way_in_poly(self, sets, old_map, wid: int) -> bool:
        if wid in sets.ways_seen:
            return True
        refs = self.resolver.read_way(wid)
        if refs is not None and self.nodes_in_poly(sets, old_map, refs):
            sets.ways_seen.add(wid)
            return True
        return False

    # ---- PolyInfo::members_in_poly / relation_in_poly
    #      (src/osmxml/filter.rs:149-192)
    def members_in_poly(self, sets, old_map, members, prev: list[int]) -> bool:
        for m in members:
            t, r = m["type"], int(m["ref"])
            if t == "node":
                if self.node_in_poly(sets, old_map, r):
                    return True
            elif t == "way":
                if self.way_in_poly(sets, old_map, r):
                    return True
            elif t == "relation":
                if r in prev:
                    continue  # recursion dropped (src/osmxml/filter.rs:158-165)
                if self.relation_in_poly(sets, old_map, r, prev + [r]):
                    return True
            else:  # pragma: no cover
                raise ValueError(f"Unsupported relation member: {m}")
        return False

    def relation_in_poly(self, sets, old_map, rid: int, prev: list[int]) -> bool:
        if rid in sets.relations_seen:
            return True
        members = self.resolver.read_relation(rid)
        if members is not None and self.members_in_poly(sets, old_map, members, prev):
            sets.relations_seen.add(rid)
            return True
        return False

    # ---- update_node ladder (src/osmxml/filter.rs:219-236)
    def verdict_node(self, p: int, nid: int) -> str:
        new_buf = self.memb.new_in_buffered.get(p, False)
        in_buffered = new_buf or self.node_in_poly(
            self.buff_sets, self.memb.old_in_buffered, nid
        )
        if not in_buffered:
            return "drop"
        if self.memb.new_in_exact.get(p, False):
            self.exact_sets.nodes_seen.add(nid)
            self.buff_sets.nodes_seen.add(nid)
            return "keep"
        self.buff_sets.nodes_seen.add(nid)
        return "delete"

    # ---- update_way ladder (src/osmxml/filter.rs:237-261)
    def verdict_way(self, p: int, wid: int, refs) -> str:
        if not self.memb.bbox_hits_buffered.get(p, False):
            return "drop"
        refs = refs if refs is not None else []
        if self.nodes_in_poly(self.exact_sets, self.memb.old_in_exact, refs):
            self.exact_sets.ways_seen.add(wid)
            self.buff_sets.ways_seen.add(wid)
            return "keep"
        if self.nodes_in_poly(
            self.buff_sets, self.memb.old_in_buffered, refs
        ) or self.way_in_poly(self.buff_sets, self.memb.old_in_buffered, wid):
            self.buff_sets.ways_seen.add(wid)
            return "delete"
        return "drop"

    # ---- update_relation ladder (src/osmxml/filter.rs:262-299)
    def verdict_relation(self, p: int, rid: int, members) -> str:
        if not self.memb.bbox_hits_buffered.get(p, False):
            return "drop"
        members = members if members is not None else []
        if self.members_in_poly(self.exact_sets, self.memb.old_in_exact, members, []):
            self.exact_sets.relations_seen.add(rid)
            self.buff_sets.relations_seen.add(rid)
            return "keep"
        if self.members_in_poly(
            self.buff_sets, self.memb.old_in_buffered, members, []
        ) or self.relation_in_poly(self.buff_sets, self.memb.old_in_buffered, rid, []):
            self.buff_sets.relations_seen.add(rid)
            return "delete"
        return "drop"


def filter_verdicts(
    elements: pa.Table, memb: PolyMembership, resolver: Resolver
) -> np.ndarray:
    """Per-row verdict array ('keep'|'delete'|'drop') in table order.

    Every element goes through the sequential automaton, reproducing
    the store-lookup counts exactly."""
    auto = _Automaton(memb, resolver)
    etypes = elements["etype"].to_pylist()
    ids = elements["id"].to_pylist()
    poss = elements["pos"].to_pylist()
    refs = elements["refs"].to_pylist()
    members = elements["members"].to_pylist()
    out = np.empty(len(etypes), dtype=object)
    for i, (t, eid, p) in enumerate(zip(etypes, ids, poss)):
        if t == "node":
            out[i] = auto.verdict_node(p, eid)
        elif t == "way":
            out[i] = auto.verdict_way(p, eid, refs[i])
        else:
            out[i] = auto.verdict_relation(p, eid, members[i])
    return out


def oracle_filter(elements, mp, resolver, node_ids) -> pa.Table:
    """`filter_elements` by the automaton: kept and deleted rows, the
    action of a delete verdict rewritten."""
    verdicts = filter_verdicts(
        elements, precompute_membership(elements, mp, resolver, node_ids), resolver
    )
    keep = verdicts != "drop"
    sub = elements.filter(pa.array(keep))
    return sub.set_column(
        sub.schema.get_field_index("action"), "action",
        pc.if_else(pa.array(verdicts[keep] == "delete"), "delete", sub["action"]),
    )


def oracle_tree(elements, tree, parent, resolver, node_ids) -> list[tuple]:
    """`filter_tree` by the automaton, each child on its parent's
    output: sorted (pos, etype, id, action, poly_path) rows."""
    outputs = {None: elements}
    rows = []
    for path, _name, mp in tree:
        src = outputs.get(parent.get(path), elements.slice(0, 0))
        out = oracle_filter(src, mp, resolver, node_ids) if src.num_rows else src
        outputs[path] = out
        rows += [(*r, path) for r in zip(*(out[c].to_pylist()
                                           for c in ("pos", "etype", "id", "action")))]
    return sorted(rows)
