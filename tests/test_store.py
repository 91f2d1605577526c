"""Element store: the base file + delta overlay against a
last-writer-wins model (reads and the Resolver), cut folds, the CSR
Resolver's parity with a per-row dict, and the check_store anti-join."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.cloudpickle

from osm_replication_rust_ray.sources.osmxml import MEMBER_T
from osm_replication_rust_ray.sources.store import (
    ElementStore,
    Resolver,
    _read_ipc,
    check_store,
)
from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements
from osm_replication_rust_ray.stages.bbox import annotate_bbox
from tests.test_bbox_stage import MockResolver

_TYPES = ("nodes", "ways", "relations")


def _seeded(path, n=600):
    store = ElementStore(str(path))
    store.init()
    store.apply_changes(synth_store_elements(n, seed=2))
    return store


def _fresh(store, etype):
    return ElementStore(store.dir).read_type(etype)


# The memo these three tests are named for is gone (the page cache holds
# the mapped base now); what they check still holds: an instance reads what
# another instance on the same directory applied or folded, and its own
# apply, exactly as a fresh instance reads it.
def test_memo_rereads_a_bucket_another_instance_replaced(tmp_path):
    a = _seeded(tmp_path / "db")
    before = {t: a.read_type(t) for t in _TYPES}
    b = ElementStore(a.dir)
    b.FOLD_DELTAS = 1
    b.apply_changes(synth_changes(300, seed=2, seq=1))  # replaces every base
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
        assert got.equals(want) and got.schema.equals(want.schema, check_metadata=True)


def test_an_old_bucket_layout_store_raises(tmp_path):
    d = tmp_path / "db"
    d.mkdir()
    (d / "store.json").write_text('{"n_buckets": 64}')
    with pytest.raises(ValueError, match="import"):
        ElementStore(str(d))


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
    store = ElementStore(str(tmp_path / "db"))
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
    store = ElementStore(str(tmp_path / "db"))
    store.init()
    store.write_table("nodes", pa.table({
        "id": pa.array([1], pa.int64()),
        "lat": pa.array([0], pa.int64()),
        "lon": pa.array([0], pa.int64()),
    }))
    assert check_store(store).num_rows == 0


# ---------------- delta store: apply = one delta per type, fold every N ----

_STORE_COLS = {
    "nodes": ("node", ["id", "lat", "lon"]),
    "ways": ("way", ["id", "refs"]),
    "relations": ("relation", ["id", "members", "tags"]),
}


def _model_apply(model, elements):
    """Last writer (by ``pos``) wins per id; a delete is a tombstone."""
    for row in sorted(elements.to_pylist(), key=lambda r: r["pos"]):
        for t, (etype, cols) in _STORE_COLS.items():
            if row["etype"] != etype:
                continue
            if row["action"] == "delete":
                model[t].pop(row["id"], None)
            else:
                model[t][row["id"]] = {c: row[c] for c in cols}


def _model_violations(model):
    nodes, ways, rels = model["nodes"], model["ways"], model["relations"]
    out = []
    for wid in sorted(ways):
        for ref in ways[wid]["refs"] or []:
            if ref not in nodes:
                out.append(("way", wid, "node", ref))
    for rid in sorted(rels):
        for m in rels[rid]["members"] or []:
            pool = {"node": nodes, "way": ways}.get(m["type"], rels)
            if m["ref"] not in pool:
                out.append(("relation", rid, m["type"], m["ref"]))
    return out


def _sorted_rows(table):
    if table is None:
        return []
    return table.take(pa.array(np.argsort(table["id"].to_numpy()))).to_pylist()


def _n_deltas(store, t):
    return len(store._deltas(t))


def _check_resolver(r, model, ids):
    """Every Resolver lookup of ``ids`` against the model; a null list
    reads as missing."""
    nodes, ways, rels = (model[t] for t in _TYPES)
    found, lat, lon = r.node_points(ids)
    assert found.tolist() == [i in nodes for i in ids.tolist()]
    assert lat.tolist() == [nodes[i]["lat"] if i in nodes else 0 for i in ids.tolist()]
    assert lon.tolist() == [nodes[i]["lon"] if i in nodes else 0 for i in ids.tolist()]
    want_ways = [ways[i]["refs"] if i in ways else None for i in ids.tolist()]
    want_rels = [rels[i]["members"] if i in rels else None for i in ids.tolist()]
    off, flat = r.way_refs(ids)
    assert [flat[off[k]:off[k + 1]].tolist() for k in range(len(ids))] == [
        w or [] for w in want_ways]
    assert [r.read_way(i) for i in ids.tolist()] == want_ways
    off, types, refs = r.relation_members(ids)
    types = types.to_pylist()
    assert [list(zip(types[off[k]:off[k + 1]], refs[off[k]:off[k + 1]].tolist()))
            for k in range(len(ids))] == [
        [(m["type"], m["ref"]) for m in ms or []] for ms in want_rels]
    assert [r.read_relation(i) for i in ids.tolist()] == want_rels


@pytest.mark.parametrize("fold", [ElementStore.FOLD_DELTAS, 1, 10**9])
def test_delta_store_matches_a_last_writer_wins_model(tmp_path, fold):
    seed = synth_store_elements(4000)
    store = ElementStore(str(tmp_path / "db"))
    store.FOLD_DELTAS = fold
    store.init()
    store.apply_changes(seed)
    model = {t: {} for t in _TYPES}
    _model_apply(model, seed)
    assert all(_n_deltas(store, t) == 0 for t in _TYPES)  # the seed folds at once
    gone = {t: set() for t in _TYPES}  # ids deleted at some step
    rng = np.random.default_rng(fold % 97)
    fds = len(os.listdir("/proc/self/fd"))
    for seq in range(1, 21):
        diff = synth_changes(600, seed=3, seq=seq)
        store.apply_changes(diff)
        before = {t: set(model[t]) for t in _TYPES}
        _model_apply(model, diff)
        r = Resolver.from_store(store)
        probes = []
        for t in _TYPES:
            want = [model[t][i] for i in sorted(model[t])]
            assert _sorted_rows(store.read_type(t)) == want
            assert _n_deltas(store, t) == (seq - 1) % fold + 1
            gone[t] |= before[t] - set(model[t])
            base = _read_ipc(store._base_path(t))
            # ids present, deleted, deleted then re-created, only in a
            # delta, and never seen
            pools = [diff["id"].to_numpy(), np.fromiter(model[t], np.int64),
                     np.fromiter(gone[t] - set(model[t]), np.int64),
                     np.fromiter(gone[t] & set(model[t]), np.int64),
                     np.setdiff1d(np.fromiter(model[t], np.int64), base["id"].to_numpy())]
            ids = np.unique(np.concatenate(
                [rng.choice(p, min(len(p), 40), replace=False) for p in pools]
                + [np.array([-5, 10**12], np.int64)]))
            probes.append(ids)
        _check_resolver(r, model, np.unique(np.concatenate(probes)))
        got = check_store(store).to_pylist()
        assert [(r["src_type"], r["src_id"], r["ref_type"], r["ref_id"])
                for r in got] == _model_violations(model)
        # reads keep no file open: the mapping outlives its closed handle
        assert len(os.listdir("/proc/self/fd")) == fds
    assert all(gone[t] for t in _TYPES)
    # a fresh instance reads the same store
    for t in _TYPES:
        assert _sorted_rows(ElementStore(store.dir).read_type(t)) == _sorted_rows(
            store.read_type(t))


def _elements(rows):
    from osm_replication_rust_ray.sources.osmxml import ELEMENTS_SCHEMA

    return pa.Table.from_pylist(
        [dict(r, pos=i) for i, r in enumerate(rows)], schema=ELEMENTS_SCHEMA
    )


def _node(nid, lat, action="modify"):
    return {"etype": "node", "id": nid, "action": action, "lat": lat,
            "lon": None if lat is None else -lat}


def _snapshot(root):
    out = {}
    for dirpath, _d, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def _hand_store(path):
    store = ElementStore(str(path))
    store.init()
    store.apply_changes(_elements([_node(i, 10 * i, "create") for i in range(1, 9)]))
    return store


def _lat_of(store):
    return {r["id"]: r["lat"] for r in store.read_type("nodes").to_pylist()}


def test_applying_the_same_delta_twice_changes_nothing(tmp_path):
    store = _hand_store(tmp_path / "db")
    d = _elements([_node(2, 21), _node(3, None, "delete")])
    store.apply_changes(d)
    assert _n_deltas(store, "nodes") == 1
    before = _snapshot(store.dir)
    store.apply_changes(d)
    ElementStore(store.dir).apply_changes(d)
    assert _snapshot(store.dir) == before
    assert _lat_of(store) == {1: 10, 2: 21, 4: 40, 5: 50, 6: 60, 7: 70, 8: 80}


def test_a_repeated_delta_after_another_wins_again(tmp_path):
    store = _hand_store(tmp_path / "db")
    d = _elements([_node(2, 21), _node(5, 51)])
    e = _elements([_node(2, 22), _node(6, 62)])
    for x in (d, e, d):
        store.apply_changes(x)
    assert _n_deltas(store, "nodes") == 3
    assert _lat_of(store) == {1: 10, 2: 21, 3: 30, 4: 40, 5: 51, 6: 62, 7: 70, 8: 80}


def test_a_tombstone_hides_a_base_row_until_a_later_create(tmp_path):
    store = _hand_store(tmp_path / "db")
    store.apply_changes(_elements([_node(4, None, "delete"), _node(9, 90, "create")]))
    assert 4 not in _lat_of(store) and _lat_of(store)[9] == 90
    # the base file still holds the row: only the delta hides it
    assert 4 in _read_ipc(store._base_path("nodes"))["id"].to_pylist()
    assert not Resolver.from_store(store).node_points(np.array([4], np.int64))[0][0]
    store.apply_changes(_elements([_node(4, 44, "create")]))
    assert _lat_of(store)[4] == 44
    assert Resolver.from_store(store).node_points(np.array([4], np.int64))[1][0] == 44
    store.FOLD_DELTAS = 1
    store.apply_changes(_elements([_node(1, 11)]))  # folds both earlier deltas
    assert _n_deltas(store, "nodes") == 1
    assert _lat_of(store) == {1: 11, 2: 20, 3: 30, 4: 44, 5: 50, 6: 60, 7: 70, 8: 80, 9: 90}


def test_memo_drops_deltas_another_instance_folded(tmp_path):
    a = _hand_store(tmp_path / "db")
    a.apply_changes(_elements([_node(2, 21)]))
    a.apply_changes(_elements([_node(3, 31)]))
    a.read_type("nodes")
    assert _n_deltas(a, "nodes") == 2
    b = ElementStore(a.dir)
    b.FOLD_DELTAS = 1
    b.apply_changes(_elements([_node(4, 41)]))  # folds both, writes one
    assert _n_deltas(a, "nodes") == 1
    assert _lat_of(a) == {1: 10, 2: 21, 3: 31, 4: 41, 5: 50, 6: 60, 7: 70, 8: 80}
    r = Resolver.from_store(a)
    ok, lat, _lon = r.node_points(np.array([2, 3, 4], np.int64))
    assert ok.all() and lat.tolist() == [21, 31, 41]


def test_a_null_list_reads_as_missing_in_the_base_and_the_overlay(tmp_path):
    store = ElementStore(str(tmp_path / "db"))
    store.init()
    store.write_table("ways", pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "refs": pa.array([[1], None, [3]], pa.list_(pa.int64())),
    }))
    store.apply_changes(_elements([
        {"etype": "way", "id": 1, "action": "modify", "refs": None},
        {"etype": "way", "id": 2, "action": "modify", "refs": [2]},
    ]))
    r = Resolver.from_store(store)
    assert [r.read_way(i) for i in (1, 2, 3)] == [None, [2], [3]]
    off, flat = r.way_refs(np.array([3, 1, 2], np.int64))
    assert off.tolist() == [0, 1, 1, 2] and flat.tolist() == [3, 2]


def test_bulk_paths_fold_pending_deltas_first(tmp_path):
    store = _hand_store(tmp_path / "db")
    store.apply_changes(_elements([_node(2, 21), _node(3, None, "delete")]))
    store.apply_changes(_elements([_node(9, 90, "create")]))
    want = _sorted_rows(store.read_type("nodes"))

    store.apply_changes(_elements([_node(5, 55)]))
    assert _n_deltas(store, "nodes") == 3
    store.write_table("nodes", pa.table({
        "id": pa.array([5, 6], pa.int64()),
        "lat": pa.array([500, 600], pa.int64()),
        "lon": pa.array([-500, -600], pa.int64()),
    }))
    assert _n_deltas(store, "nodes") == 0
    # the import replaces the rows of its ids; the folded delta (5 -> 55)
    # does not win over it
    assert _lat_of(store) == {r["id"]: r["lat"] for r in want} | {5: 500, 6: 600}


def test_a_fold_cut_before_its_rename_reads_the_old_base_then_folds_to_the_same_bytes(
        tmp_path, monkeypatch):
    store = _hand_store(tmp_path / "db")
    store.apply_changes(_elements([_node(2, 21), _node(3, None, "delete")]))
    store.apply_changes(_elements([_node(9, 90, "create")]))
    shutil.copytree(store.dir, tmp_path / "clean")
    clean = ElementStore(str(tmp_path / "clean"))
    want = _lat_of(store)
    base = _snapshot(store.dir)["nodes.arrow"]
    last = _elements([_node(5, 55)])
    store.FOLD_DELTAS = clean.FOLD_DELTAS = 2

    def cut(_src, _dst):
        raise OSError("cut before the rename")

    monkeypatch.setattr(os, "replace", cut)
    with pytest.raises(OSError, match="cut"):
        store.apply_changes(last)
    monkeypatch.undo()
    on_disk = _snapshot(store.dir)
    assert "nodes.arrow.tmp" in on_disk and on_disk["nodes.arrow"] == base
    assert _n_deltas(store, "nodes") == 2
    assert _lat_of(store) == want
    found, lat, _lon = Resolver.from_store(store).node_points(np.array([2, 3, 9], np.int64))
    assert found.tolist() == [True, False, True] and lat.tolist() == [21, 0, 90]
    store.apply_changes(last)  # the fold runs again
    clean.apply_changes(last)
    assert _snapshot(store.dir) == _snapshot(clean.dir)
    assert _lat_of(store) == want | {5: 55}
