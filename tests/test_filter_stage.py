"""Polygon filter stage vs the reference's fixture invariants.

- lookup counts 50 nodes / 7 ways / 2 relations on the bbox-annotated
  saint_barthelemy diff + saint_barthelemy.poly with the empty+recursive
  mock store (src/osmxml/filter.rs:379-393).
- verdict sanity with the real store.
"""

import numpy as np
import pyarrow.compute as pc

from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
from osm_replication_rust_ray.sources.polyfile import read_multipolygon
from osm_replication_rust_ray.sources.store import Resolver
from osm_replication_rust_ray.stages.bbox import closure_node_ids
from osm_replication_rust_ray.stages.filter import filter_elements

from filter_oracle import filter_verdicts, precompute_membership

RES = "/root/reference/tests/resources"


class MockResolver(Resolver):
    def __init__(self):
        super().__init__(None, None, None)

    def read_relation(self, rid):
        self.num_read_relations += 1
        if rid == 7802:
            return [{"ref": 7801, "role": "subarea", "type": "relation"}]
        if rid == 7801:
            return [{"ref": 7802, "role": "subarea", "type": "relation"}]
        return None


def test_filter_lookup_invariant():
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.bbox.osc.gz")
    _, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    resolver = MockResolver()
    node_ids = closure_node_ids(elements, MockResolver())
    memb = precompute_membership(elements, mp, resolver, node_ids)
    assert resolver.num_read_nodes == 0  # precompute is not a lookup
    filter_verdicts(elements, memb, resolver)
    assert resolver.num_read_nodes == 50
    assert resolver.num_read_ways == 7
    assert resolver.num_read_relations == 2


def test_filter_output_mock_matches_new_geometry_only():
    """With an empty store, verdicts depend only on NEW geometry: nodes
    inside the polygon keep, nodes in buffer-only delete, others drop."""
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.bbox.osc.gz")
    _, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    resolver = MockResolver()
    node_ids = closure_node_ids(elements, MockResolver())
    out = filter_elements(elements, mp, resolver, node_ids)
    # every output row existed in the input
    in_ids = set(zip(elements["etype"].to_pylist(), elements["id"].to_pylist()))
    for t, i in zip(out["etype"].to_pylist(), out["id"].to_pylist()):
        assert (t, i) in in_ids
    # nodes with new position inside poly keep their action
    from osm_replication_rust_ray.geom import points_in_multipolygon

    nodes = elements.filter(pc.equal(elements["etype"], "node"))
    lat = np.array(nodes["lat"].to_pylist(), np.int64)
    lon = np.array(nodes["lon"].to_pylist(), np.int64)
    inside = points_in_multipolygon(lon, lat, mp)
    expect_keep = {
        i for i, ins in zip(nodes["id"].to_pylist(), inside.tolist()) if ins
    }
    out_nodes = out.filter(pc.equal(out["etype"], "node"))
    got_keep = {
        i
        for i, a, orig in zip(
            out_nodes["id"].to_pylist(),
            out_nodes["action"].to_pylist(),
            [None] * out_nodes.num_rows,
        )
    }
    # keep-verdict nodes are exactly those whose new point is inside
    orig_action = dict(zip(nodes["id"].to_pylist(), nodes["action"].to_pylist()))
    for i, a in zip(out_nodes["id"].to_pylist(), out_nodes["action"].to_pylist()):
        if i in expect_keep:
            assert a == orig_action[i]
        else:
            assert a == "delete"


def test_diff_relation_own_store_member_evidence():
    """A relation whose DIFF members carry no evidence but whose OWN
    store members do must verdict delete: the ladder's delete arm falls
    back to relation_in_poly(rid), which reads THIS relation from the
    store (src/osmxml/filter.rs:284-291).  Round-4 regression test —
    the closure once seeded its visited set with diff relation ids
    without expanding their store members, so the membership maps missed the
    evidence node and the verdict silently became drop (found by the
    1M-element distributed parity run, relation 914395)."""
    import pyarrow as pa

    from osm_replication_rust_ray.geom import MultiPolygon
    from osm_replication_rust_ray.sources.osmxml import ELEMENTS_SCHEMA
    from osm_replication_rust_ray.stages.bbox import annotate_bbox

    store_nodes = pa.table(
        {"id": pa.array([555], pa.int64()),
         "lat": pa.array([0], pa.int64()),
         "lon": pa.array([0], pa.int64())}
    )
    member_t = ELEMENTS_SCHEMA.field("members").type.value_type
    store_rels = pa.table(
        {"id": pa.array([900001], pa.int64()),
         "members": pa.array(
             [[{"ref": 555, "role": "m", "type": "node"}]],
             pa.list_(member_t))}
    )
    resolver = Resolver(store_nodes, None, store_rels)
    elements = pa.Table.from_pylist(
        [{
            "pos": 0, "etype": "relation", "id": 900001, "action": "modify",
            "members": [{"ref": 999111, "role": "m", "type": "node"}],
        }],
        schema=ELEMENTS_SCHEMA,
    )
    half = 1_000_000
    mp = MultiPolygon.from_rings(
        [(
            np.array([-half, half, half, -half], np.int64),
            np.array([-half, -half, half, half], np.int64),
        )]
    )
    annotated = annotate_bbox(elements, resolver)
    node_ids = closure_node_ids(annotated, resolver)
    assert 555 in node_ids.tolist()  # the closure must reach it
    memb = precompute_membership(annotated, mp, resolver, node_ids)
    verdicts = filter_verdicts(annotated, memb, resolver)
    assert verdicts.tolist() == ["delete"]
