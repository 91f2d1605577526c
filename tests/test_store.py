"""Element store: the stat-keyed bucket memo, the CSR Resolver's parity
with a per-row dict, and the check_store anti-join."""

import numpy as np
import pyarrow as pa
import pytest
import ray.cloudpickle

from osm_replication_rust_ray.sources.osmxml import MEMBER_T
from osm_replication_rust_ray.sources.store import ElementStore, Resolver, check_store
from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements
from osm_replication_rust_ray.stages.bbox import annotate_bbox
from tests.test_bbox_stage import MockResolver

_TYPES = ("nodes", "ways", "relations")


def _seeded(path, n=600):
    store = ElementStore(str(path), n_buckets=8)
    store.init()
    store.apply_changes(synth_store_elements(n, seed=2))
    return store


def _fresh(store, etype):
    return ElementStore(store.dir).read_type(etype)


def test_memo_rereads_a_bucket_another_instance_replaced(tmp_path):
    a = _seeded(tmp_path / "db")
    before = {t: a.read_type(t) for t in _TYPES}
    assert a._memo  # the reads were memoized
    b = ElementStore(a.dir)
    b.apply_changes(synth_changes(300, seed=2, seq=1))
    changed = False
    for t in _TYPES:
        got, want = a.read_type(t), _fresh(b, t)
        assert got.equals(want) and got.schema.equals(want.schema, check_metadata=True)
        changed |= not got.equals(before[t])
    assert changed


def test_memo_after_own_apply_matches_a_fresh_read(tmp_path):
    a = _seeded(tmp_path / "db")
    for t in _TYPES:
        a.read_type(t)
    a.apply_changes(synth_changes(300, seed=2, seq=1))
    for t in _TYPES:
        got, want = a.read_type(t), _fresh(a, t)
        # a refreshed entry carries the schema a file read returns
        assert got.equals(want) and got.schema.equals(want.schema, check_metadata=True)


def test_apply_changes_alone_adds_no_memo_entry(tmp_path):
    store = _seeded(tmp_path / "db")
    store.apply_changes(synth_changes(300, seed=2, seq=1))
    assert store._memo == {}


def _lists_tables():
    nodes = pa.table({
        "id": pa.array([5, 3, 4], pa.int64()),
        "lat": pa.array([50, 30, 40], pa.int64()),
        "lon": pa.array([-50, -30, -40], pa.int64()),
    })
    ways = pa.table({
        "id": pa.array([10, 11, 10, 12, 14, 14], pa.int64()),
        "refs": pa.array([[3, 4], None, [5], [], [3], None], pa.list_(pa.int64())),
    })
    m = [{"ref": 3, "role": "a", "type": "node"}, {"ref": 10, "role": "", "type": "way"}]
    rels = pa.table({
        "id": pa.array([20, 21, 20, 22, 24, 24], pa.int64()),
        "members": pa.array([m, None, m[::-1], [], m, None], pa.list_(MEMBER_T)),
    })
    return nodes, ways, rels


def test_resolver_matches_a_per_row_dict():
    nodes, ways, rels = _lists_tables()
    want_ways = {row["id"]: row["refs"] for row in ways.to_pylist()}
    want_rels = {row["id"]: row["members"] for row in rels.to_pylist()}
    r = Resolver(nodes, ways, rels)
    for wid in (10, 11, 12, 13, 14, 0, 99):
        assert r.read_way(wid) == want_ways.get(wid)
        assert r.read_way(np.int64(wid)) == want_ways.get(wid)
    for rid in (20, 21, 22, 23, 24, 0, 99):
        assert r.read_relation(rid) == want_rels.get(rid)
    assert r.read_way(10) == [5] and r.read_relation(20) == want_rels[20]
    found, lat, lon = r.read_nodes(np.array([4, 6, 3], np.int64))
    assert found.tolist() == [True, False, True]
    assert lat.tolist() == [40, 0, 30] and lon.tolist() == [-40, 0, -30]
    assert (r.num_read_nodes, r.num_read_ways, r.num_read_relations) == (3, 15, 8)
    assert r.read_way_full(10) == {"id": 10, "nodes": [{"id": 5, "lat": 50, "lon": -50}]}

    # the Resolver ships to Ray workers by value
    r2 = ray.cloudpickle.loads(ray.cloudpickle.dumps(r))
    assert [r2.read_way(w) for w in (10, 11, 14)] == [[5], None, None]
    assert r2.read_relation(20) == want_rels[20]
    assert (r2.num_read_ways, r2.num_read_relations) == (19, 9)

    empty = Resolver.empty()
    assert empty.read_way(10) is None and empty.read_relation(20) is None


def test_resolver_subclass_overrides_lookups():
    changes = synth_changes(400)
    got = annotate_bbox(changes, MockResolver())
    assert got.num_rows == changes.num_rows
    mock = MockResolver()
    assert mock.read_relation(7801) == [{"ref": 7802, "role": "subarea", "type": "relation"}]
    assert mock.read_way(1) is None and mock.num_read_relations == 1


def test_resolver_rejects_a_null_way_ref():
    ways = pa.table({"id": pa.array([1], pa.int64()),
                     "refs": pa.array([[1, None]], pa.list_(pa.int64()))})
    with pytest.raises(ValueError):
        Resolver(None, ways, None)


def test_check_store_lists_every_dangling_reference(tmp_path):
    store = ElementStore(str(tmp_path / "db"), n_buckets=4)
    store.init()
    store.write_table("nodes", pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "lat": pa.array([10, 20, 30], pa.int64()),
        "lon": pa.array([11, 21, 31], pa.int64()),
    }))
    store.write_table("ways", pa.table({
        "id": pa.array([12, 10, 11], pa.int64()),
        "refs": pa.array([[97], [1, 99, 2, 98], [3]], pa.list_(pa.int64())),
    }))

    def mem(*ms):
        return [{"ref": ref, "role": "", "type": typ} for typ, ref in ms]

    store.write_table("relations", pa.table({
        "id": pa.array([21, 20], pa.int64()),
        "members": pa.array([
            mem(("way", 12), ("relation", 20), ("node", 95)),
            mem(("node", 1), ("node", 96), ("way", 10), ("way", 55),
                ("relation", 21), ("relation", 77)),
        ], pa.list_(MEMBER_T)),
    }))
    got = check_store(store)
    assert got.schema == pa.schema([
        ("src_type", pa.string()), ("src_id", pa.int64()),
        ("ref_type", pa.string()), ("ref_id", pa.int64()),
    ])
    assert got.to_pylist() == [
        {"src_type": s, "src_id": i, "ref_type": t, "ref_id": r}
        for s, i, t, r in [
            ("way", 10, "node", 99),
            ("way", 10, "node", 98),
            ("way", 12, "node", 97),
            ("relation", 20, "node", 96),
            ("relation", 20, "way", 55),
            ("relation", 20, "relation", 77),
            ("relation", 21, "node", 95),
        ]
    ]


def test_check_store_on_a_consistent_store_is_empty(tmp_path):
    store = ElementStore(str(tmp_path / "db"), n_buckets=4)
    store.init()
    store.write_table("nodes", pa.table({
        "id": pa.array([1], pa.int64()),
        "lat": pa.array([0], pa.int64()),
        "lon": pa.array([0], pa.int64()),
    }))
    assert check_store(store).num_rows == 0
