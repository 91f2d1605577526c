"""bbox stage goldens against the reference's own fixtures.

- lookup-amplification invariant: 33 nodes / 7 ways / 9 relations on
  saint_barthelemy.osc.gz with an empty store + the mutually-recursive
  mock relations 7801<->7802 (src/osmxml/bbox.rs:259-272), made by the
  per-row oracle (tests/bbox_oracle.py); the kernel reads in bulk.
- full golden: with the store imported from saint_barthelemy.osm.pbf,
  the annotated bboxes must equal the repo's committed expected output
  saint_barthelemy.bbox.osc.gz.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
from osm_replication_rust_ray.sources.store import ElementStore, Resolver
from osm_replication_rust_ray.stages.bbox import annotate_bbox
from osm_replication_rust_ray.stages.filter import DiffClosure

import bbox_oracle

RES = "/root/reference/tests/resources"


class MockResolver(Resolver):
    """Empty store except mutually-recursive relations 7801<->7802
    (mirrors the MockReader of src/osmxml/bbox.rs:204-247)."""

    def __init__(self):
        super().__init__(None, None, None)

    def read_relation(self, rid):
        self.num_read_relations += 1
        if rid == 7802:
            return [{"ref": 7801, "role": "subarea", "type": "relation"}]
        if rid == 7801:
            return [{"ref": 7802, "role": "subarea", "type": "relation"}]
        return None


def walk_scoped_resolver(store, walk):
    """A Resolver over only the store rows of the walk's N/W/R ids."""
    tables = (store.read_type(e) for e in ("nodes", "ways", "relations"))
    return Resolver(*(
        t.filter(pc.is_in(t["id"], value_set=pa.array(ids, pa.int64())))
        for t, ids in zip(tables, (walk.N, walk.W, walk.R))))


def test_lookup_amplification_invariant():
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
    resolver = MockResolver()
    bbox_oracle.annotate_bbox(elements, resolver)
    assert resolver.num_read_nodes == 33
    assert resolver.num_read_ways == 7
    assert resolver.num_read_relations == 9


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    d = tmp_path_factory.mktemp("osmstore")
    s = ElementStore(str(d / "db"))
    s.import_pbf(f"{RES}/saint_barthelemy.osm.pbf")
    return s


def test_bbox_golden_vs_reference_output(store):
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
    resolver = Resolver.from_store(store)
    got = annotate_bbox(elements, resolver)
    expected = parse_osm_xml(f"{RES}/saint_barthelemy.bbox.osc.gz")
    assert got.num_rows == expected.num_rows
    for col in ("etype", "id", "action"):
        assert got[col].to_pylist() == expected[col].to_pylist()
    for col in ("minlat", "maxlat", "minlon", "maxlon"):
        g = got[col].to_pylist()
        e = expected[col].to_pylist()
        assert g == e, f"{col}: {list(zip(got['id'].to_pylist(), g, e))}"


def test_walk_scoped_resolver_on_fixture(store):
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
    walk = DiffClosure(elements, Resolver.from_store(store))
    # all diff node ids present
    diff_nodes = set(
        elements.filter(pc.equal(elements["etype"], "node"))["id"].to_pylist()
    )
    assert diff_nodes <= set(walk.N.tolist())
    # a scoped resolver built from the walk's ids gives identical output
    scoped = walk_scoped_resolver(store, walk)
    got_scoped = annotate_bbox(elements, scoped)
    got_full = annotate_bbox(elements, Resolver.from_store(store))
    for col in ("minlat", "maxlat", "minlon", "maxlon"):
        assert got_scoped[col].to_pylist() == got_full[col].to_pylist()


def test_way_phase_vectorized_scale_probe():
    """A 64k-row synthetic diff clears the bbox pass in seconds (the
    per-way Python loop took ~1 s per 128k rows before vectorization;
    a 100x catch-up diff would have made it the bottleneck).  The box
    count is pinned so the vectorized way phase can't silently drift."""
    import time

    from osm_replication_rust_ray.sources.synth import synth_changes

    changes = synth_changes(64_000)
    t0 = time.monotonic()
    out = annotate_bbox(changes, Resolver.empty())
    elapsed = time.monotonic() - t0
    # 54870 = post-fix count: the NaN-carry regression (see
    # test_way_prev_box_carries_through_refless_occurrence) was hiding
    # 475 boxes of ways whose later occurrences had no resolvable refs
    assert sum(v is not None for v in out["minlat"].to_pylist()) == 54870
    assert elapsed < 10, f"bbox pass too slow: {elapsed:.1f}s"


def test_way_prev_box_carries_through_refless_occurrence():
    """Regression (round-2 review): a later occurrence of the same way
    with NO resolvable refs must inherit the previous occurrence's box
    (the reference's ways_modified map is a monotone prefix union,
    src/osmxml/bbox.rs:78-85) — cummin alone left it null, silently
    dropping created-then-deleted ways downstream."""
    import pyarrow as pa

    from osm_replication_rust_ray.sources.osmxml import ELEMENTS_SCHEMA

    base = {
        "refs": None, "members": None, "tags": None, "version": None,
        "timestamp": None, "uid": None, "user": None, "changeset": None,
        "minlat": None, "maxlat": None, "minlon": None, "maxlon": None,
        "lat": None, "lon": None,
    }
    rows = [
        {**base, "pos": 0, "etype": "node", "id": 100, "action": "create",
         "lat": 10, "lon": 20},
        {**base, "pos": 1, "etype": "way", "id": 7, "action": "create",
         "refs": [100]},
        {**base, "pos": 2, "etype": "way", "id": 7, "action": "delete"},
        # relation referencing the way AFTER the refless occurrence must
        # still see the carried box through the prefix query
        {**base, "pos": 3, "etype": "relation", "id": 900, "action": "modify",
         "members": [{"ref": 7, "role": "outer", "type": "way"}]},
    ]
    t = pa.Table.from_pylist(rows, schema=ELEMENTS_SCHEMA)
    out = annotate_bbox(t, Resolver.empty())
    for i in (1, 2, 3):
        assert out["minlat"][i].as_py() == 10, i
        assert out["maxlat"][i].as_py() == 10, i
        assert out["minlon"][i].as_py() == 20, i
        assert out["maxlon"][i].as_py() == 20, i
