"""The in-process filter kernel must give byte-identical outputs to the
reference-parity automaton run over EVERY row with unpruned geometry —
on the reference fixture, on synthetic diffs against a real synthetic
store, through the polygon tree, and on hand-built rows that each hit
one kind of evidence (a node memo from an earlier row, old store
points, store way refs, a relation cycle, a missing bbox)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from osm_replication_rust_ray.cli import _load_tree
from osm_replication_rust_ray.geom import (
    BUFFER_DECIMICRO,
    MultiPolygon,
    boxes_intersect_buffered,
    points_in_buffered_chordal,
    points_in_multipolygon,
)
from osm_replication_rust_ray.sources.osmxml import ELEMENTS_SCHEMA, parse_osm_xml
from osm_replication_rust_ray.sources.polyfile import read_multipolygon
from osm_replication_rust_ray.sources.store import Resolver
from osm_replication_rust_ray.sources.synth import (
    synth_changes,
    synth_polygon_tree,
    synth_store,
    write_polygon_tree,
)
from osm_replication_rust_ray.stages.bbox import (
    annotate_bbox,
    closure_node_ids,
)
from osm_replication_rust_ray.stages.filter import filter_elements, filter_tree

from filter_oracle import PolyMembership, filter_verdicts

RES = "/root/reference/tests/resources"
COLS = ["pos", "etype", "id", "poly_path", "action"]
MEMBER_T = ELEMENTS_SCHEMA.field("members").type.value_type


def _full_membership(elements, mp, resolver, node_ids):
    """Every point and box through the geometry, no bbox prune."""
    etype = np.asarray(elements["etype"])
    pos = elements["pos"].to_numpy(zero_copy_only=False)
    nmask = etype == "node"
    lat = elements["lat"].to_numpy(zero_copy_only=False)[nmask].astype(np.int64)
    lon = elements["lon"].to_numpy(zero_copy_only=False)[nmask].astype(np.int64)
    npos = pos[nmask].tolist()
    new_ex = dict(zip(npos, points_in_multipolygon(lon, lat, mp).tolist()))
    new_bf = dict(zip(npos, points_in_buffered_chordal(lon, lat, mp).tolist()))
    node_ids = np.asarray(node_ids, np.int64)
    found, olat, olon = resolver.read_nodes(node_ids)
    fid = node_ids[found].tolist()
    old_ex = dict(zip(fid, points_in_multipolygon(olon[found], olat[found], mp).tolist()))
    old_bf = dict(
        zip(fid, points_in_buffered_chordal(olon[found], olat[found], mp).tolist())
    )
    minlat = elements["minlat"].to_numpy(zero_copy_only=False)
    wr = ~nmask & ~np.isnan(minlat.astype(np.float64))

    def col(name):
        return elements[name].to_numpy(zero_copy_only=False)[wr].astype(np.int64)

    hits = boxes_intersect_buffered(
        col("minlon"), col("minlat"), col("maxlon"), col("maxlat"), mp,
        buffer=BUFFER_DECIMICRO,
    )
    gate = dict(zip(pos[wr].tolist(), hits.tolist()))
    return PolyMembership(new_ex, new_bf, old_ex, old_bf, gate)


def _full_filter(elements, mp, resolver, node_ids):
    """The automaton over every row: the reference for filter_elements."""
    memb = _full_membership(elements, mp, resolver, node_ids)
    verdicts = filter_verdicts(elements, memb, resolver)
    keep = verdicts != "drop"
    sub = elements.filter(pa.array(keep))
    delete = pa.array(verdicts[keep] == "delete")
    return sub.set_column(
        sub.schema.get_field_index("action"), "action",
        pc.if_else(delete, "delete", sub["action"]),
    )


def _full_tree(elements, tree, parent, resolver, node_ids):
    outputs = {None: elements}
    rows = []
    for path, _name, mp in tree:
        out = _full_filter(outputs[parent[path]], mp, resolver, node_ids)
        outputs[path] = out
        rows += [(*r, path) for r in _rows(out)]
    return sorted(rows)


def _rows(table):
    return sorted(zip(*(table[c].to_pylist() for c in ["pos", "etype", "id", "action"])))


def _tree_rows(assignments):
    df = assignments.to_pandas()
    return sorted(
        zip(df["pos"], df["etype"], df["id"], df["action"], df["poly_path"])
    )


def _synth_case(n):
    nodes, ways, rels = synth_store(n)
    resolver = Resolver(nodes, ways, rels)
    annotated = annotate_bbox(synth_changes(n), resolver)
    return annotated, resolver, closure_node_ids(annotated, resolver)


def _rect(cx, cy, half):
    return (
        np.array([cx - half, cx + half, cx + half, cx - half]),
        np.array([cy - half, cy - half, cy + half, cy + half]),
    )


def test_pruned_filter_matches_full_automaton_on_reference_fixture():
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.bbox.osc.gz")
    _, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    nid = closure_node_ids(elements, Resolver.empty())
    got = filter_elements(elements, mp, Resolver.empty(), nid)
    assert _rows(got) == _rows(_full_filter(elements, mp, Resolver.empty(), nid))


def test_pruned_filter_matches_full_automaton_on_synth_store():
    annotated, resolver, nid = _synth_case(6000)
    polys = [
        # a quadrant with a hole, then every synthetic tree polygon
        MultiPolygon.from_rings(
            [_rect(400_000_000, 200_000_000, 900_000_000),
             _rect(300_000_000, 100_000_000, 150_000_000)]
        ),
        *(mp for _rel, mp in synth_polygon_tree()),
    ]
    survivors = 0
    for mp in polys:
        got = _rows(filter_elements(annotated, mp, resolver, nid))
        assert got == _rows(_full_filter(annotated, mp, resolver, nid))
        survivors += len(got)
    assert survivors > 1000  # the comparison sees keep and delete rows


def test_filter_tree_matches_full_automaton_rect_tree():
    annotated, resolver, nid = _synth_case(4000)
    tree = [
        ("./a", "a", MultiPolygon.from_rings([_rect(0, 0, 900_000_000)])),
        ("./a/inner", "inner", MultiPolygon.from_rings([_rect(0, 0, 300_000_000)])),
        ("./b", "b", MultiPolygon.from_rings([_rect(1_200_000_000, 0, 400_000_000)])),
    ]
    parent = {"./a": None, "./a/inner": "./a", "./b": None}
    got = _tree_rows(filter_tree(annotated, tree, parent, resolver, nid))
    assert got == _full_tree(annotated, tree, parent, resolver, nid)
    assert {r[4] for r in got} == {"./a", "./a/inner", "./b"}


def test_filter_tree_matches_full_automaton_polygon_tree(tmp_path):
    annotated, resolver, nid = _synth_case(4000)
    tree, parent = _load_tree(write_polygon_tree(str(tmp_path / "polys")))
    got = _tree_rows(filter_tree(annotated, tree, parent, resolver, nid))
    assert got == _full_tree(annotated, tree, parent, resolver, nid)
    assert len({r[4] for r in got}) > 1


# ---- hand-built rows, one gate clause each.  The polygon is a 0.2°
# square around (0, 0); BUFFER_DECIMICRO (0.1°) widens it to 0.4°.

HALF = 1_000_000
SQUARE = MultiPolygon.from_rings([_rect(0, 0, HALF)])
BAND = 3 * HALF // 2  # outside the square and its bbox, inside the buffer
FAR = 50 * HALF  # outside everything


def _elements(rows):
    return pa.Table.from_pylist(
        [{"pos": p, "action": "modify", **r} for p, r in enumerate(rows)],
        schema=ELEMENTS_SCHEMA,
    )


def _store(nodes=(), ways=(), rels=()):
    return Resolver(
        pa.table({
            "id": pa.array([i for i, _x, _y in nodes], pa.int64()),
            "lat": pa.array([y for _i, _x, y in nodes], pa.int64()),
            "lon": pa.array([x for _i, x, _y in nodes], pa.int64()),
        }),
        pa.table({
            "id": pa.array([i for i, _r in ways], pa.int64()),
            "refs": pa.array([r for _i, r in ways], pa.list_(pa.int64())),
        }),
        pa.table({
            "id": pa.array([i for i, _m in rels], pa.int64()),
            "members": pa.array([m for _i, m in rels], pa.list_(MEMBER_T)),
        }),
    )


def _member(t, ref):
    return {"type": t, "ref": ref, "role": ""}


def _hit_box():
    return {"minlat": 0, "maxlat": 0, "minlon": 0, "maxlon": 0}


def _verdicts(rows, resolver, node_ids):
    elements = _elements(rows)
    node_ids = np.array(node_ids, np.int64)
    got = filter_elements(elements, SQUARE, resolver, node_ids)
    assert _rows(got) == _rows(_full_filter(elements, SQUARE, resolver, node_ids))
    return {(t, i, p): a for p, t, i, a in _rows(got)}


def test_gate_node_row_outside_everything_seen_by_earlier_band_row():
    rows = [
        {"etype": "node", "id": 10, "lat": 0, "lon": BAND},
        {"etype": "node", "id": 10, "lat": 0, "lon": FAR},
    ]
    got = _verdicts(rows, _store(), [10])
    assert got == {("node", 10, 0): "delete", ("node", 10, 1): "delete"}


def test_gate_node_with_only_old_store_evidence():
    rows = [{"etype": "node", "id": 20, "lat": 0, "lon": FAR}]
    got = _verdicts(rows, _store(nodes=[(20, 0, 0)]), [20])
    assert got == {("node", 20, 0): "delete"}


def test_gate_way_with_only_store_ref_evidence():
    rows = [{"etype": "way", "id": 30, "refs": [31], **_hit_box()}]
    resolver = _store(nodes=[(32, 0, 0)], ways=[(30, [32])])
    got = _verdicts(rows, resolver, [31, 32])
    assert got == {("way", 30, 0): "delete"}


def test_gate_self_recursive_relation_pair_with_bbox_hit():
    rows = [{
        "etype": "relation", "id": 7801, "members": [_member("relation", 7802)],
        **_hit_box(),
    }]
    resolver = _store(
        nodes=[(40, 0, 0)],
        rels=[
            (7801, [_member("relation", 7802)]),
            (7802, [_member("relation", 7801), _member("node", 40)]),
        ],
    )
    got = _verdicts(rows, resolver, [40])
    assert got == {("relation", 7801, 0): "modify"}


def test_gate_way_and_relation_without_bbox_drop():
    rows = [
        {"etype": "node", "id": 51, "lat": 0, "lon": 0},
        {"etype": "way", "id": 50, "refs": [51]},
        {"etype": "relation", "id": 60, "members": [_member("node", 51)]},
    ]
    got = _verdicts(rows, _store(nodes=[(51, 0, 0)]), [51])
    assert got == {("node", 51, 0): "modify"}
