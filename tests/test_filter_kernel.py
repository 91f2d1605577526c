"""The whole-diff filter kernel (`stages/filter.py`) against the per-row
automaton oracle (`tests/filter_oracle.py`), chained through a polygon
tree, on seeded random diffs small enough that ids repeat at many
positions: node, way and relation ids come from pools of 15, so memo
evidence from earlier rows, store refs and store members, relation
self-loops and 2-/3-cycles (in the store and in the diff), null bboxes
and delete actions all occur.  Hand-built chains pin the relation
fixpoint: one that needs several rounds, and one past the round cap.

Also a multi-sequence soak: 18 synthetic sequences through
`run_update` on one store (crossing two store folds) against the
automaton tree plus `apply_changes` on a second store; and the store
closure the resolver keeps (one walk per sequence, a new walk for other
columns or another resolver, read-only arrays), the tree order, and one
kernel call per tree level."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from osm_replication_rust_ray.geom import MultiPolygon
from osm_replication_rust_ray.sources.osmxml import ELEMENTS_SCHEMA
from osm_replication_rust_ray.sources.store import ElementStore, Resolver
from osm_replication_rust_ray.stages import filter as kernel
from osm_replication_rust_ray.stages.bbox import annotate_bbox, closure_node_ids
from osm_replication_rust_ray.stages.dist import FixpointCapError
from osm_replication_rust_ray.stages.filter import filter_tree

from filter_oracle import oracle_tree

MEMBER_T = ELEMENTS_SCHEMA.field("members").type.value_type
POOL = 15
NODES = 1 + np.arange(POOL)
WAYS = 101 + np.arange(POOL)
RELS = 201 + np.arange(POOL)
M = 1_000_000  # 0.1°: the filter's buffer


def _square(cx, cy, half):
    return MultiPolygon.from_rings([(
        np.array([cx - half, cx + half, cx + half, cx - half]),
        np.array([cy - half, cy - half, cy + half, cy + half]),
    )])


# A and B are roots; A/c straddles A's edge, so the chain decides what
# its rows see, and its parent's delete verdicts carry into it
TREE = [
    ("./A", "A", _square(0, 0, 2 * M)),
    ("./A/c", "c", _square(2 * M, 0, M)),
    ("./B", "B", _square(7 * M, 0, 2 * M)),
]
PARENT = {"./A": None, "./A/c": "./A", "./B": None}


def _member(rng, self_id):
    t = rng.choice(["node", "way", "relation"], p=[0.3, 0.3, 0.4])
    pool = {"node": NODES, "way": WAYS, "relation": RELS}[t]
    ref = self_id if t == "relation" and rng.random() < 0.2 else int(rng.choice(pool))
    return {"type": str(t), "ref": int(ref), "role": ""}


def _uniform(x0, x1, y0, y1):
    return lambda rng: (int(rng.integers(x0, x1)), int(rng.integers(y0, y1)))


def _near_edges(tree, pad):
    """Points within ``pad`` of a bbox side of a random tree polygon:
    about half inside it, and many of the rest in its buffer band."""
    bb = np.array([mp.bbox() for _p, _n, mp in tree])

    def point(rng):
        x0, y0, x1, y1 = (int(v) for v in bb[rng.integers(len(bb))])
        if rng.random() < 0.5:
            return int(rng.integers(x0 - pad, x1 + pad)), int(rng.choice([y0, y1]) + rng.integers(-pad, pad))
        return int(rng.choice([x0, x1]) + rng.integers(-pad, pad)), int(rng.integers(y0 - pad, y1 + pad))

    return point


# where random points and boxes fall: (point generator, longest box side)
SPAN = (_uniform(-4 * M, 10 * M, -3 * M, 3 * M), 2 * M)


def _point(rng, span=SPAN):
    return span[0](rng)


def _store(rng, span=SPAN):
    nodes = [(int(i), *_point(rng, span)) for i in NODES if rng.random() < 0.7]
    ways = [
        (int(w), [int(r) for r in rng.choice(NODES, rng.integers(1, 5))] + [999] * (rng.random() < 0.1))
        for w in WAYS if rng.random() < 0.7
    ]
    rels = {int(r): [_member(rng, int(r)) for _ in range(rng.integers(0, 4))]
            for r in RELS if rng.random() < 0.7}
    # a 2-cycle and a 3-cycle through relation members
    a, b, c = (int(x) for x in rng.choice(RELS, 3, replace=False))
    for src, dst in ((a, b), (b, a), (b, c), (c, a)):
        rels.setdefault(src, []).append({"type": "relation", "ref": dst, "role": ""})
    return Resolver(
        pa.table({
            "id": pa.array([i for i, _x, _y in nodes], pa.int64()),
            "lat": pa.array([y for _i, _x, y in nodes], pa.int64()),
            "lon": pa.array([x for _i, x, _y in nodes], pa.int64()),
        }),
        pa.table({
            "id": pa.array([w for w, _r in ways], pa.int64()),
            "refs": pa.array([r for _w, r in ways], pa.list_(pa.int64())),
        }),
        pa.table({
            "id": pa.array(list(rels), pa.int64()),
            "members": pa.array(list(rels.values()), pa.list_(MEMBER_T)),
        }),
    )


def _box(rng, span):
    if rng.random() < 0.2:
        return {}
    (x, y), (w, h) = _point(rng, span), rng.integers(0, span[1], 2)
    return {"minlon": x, "maxlon": x + int(w), "minlat": y, "maxlat": y + int(h)}


def _diff(rng, span=SPAN):
    rows = []
    for _ in range(rng.integers(20, 81)):
        row = {"action": str(rng.choice(["create", "modify", "delete"]))}
        t = rng.choice(["node", "way", "relation"], p=[0.45, 0.3, 0.25])
        if t == "node":
            lon, lat = _point(rng, span)
            row.update(etype="node", id=int(rng.choice(NODES)), lon=lon, lat=lat)
        elif t == "way":
            refs = [int(r) for r in rng.choice(NODES, rng.integers(0, 4))]
            row.update(etype="way", id=int(rng.choice(WAYS)),
                       refs=refs if rng.random() < 0.9 else None, **_box(rng, span))
        else:
            rid = int(rng.choice(RELS))
            row.update(etype="relation", id=rid,
                       members=[_member(rng, rid) for _ in range(rng.integers(0, 4))]
                       if rng.random() < 0.95 else None, **_box(rng, span))
        rows.append(row)
    # positions need only grow in table order; some seeds space them out
    step = int(rng.integers(1, 4))
    return pa.Table.from_pylist(
        [{"pos": 7 + step * p, **r} for p, r in enumerate(rows)], schema=ELEMENTS_SCHEMA
    )


def test_kernel_matches_automaton_on_random_diffs():
    seen = {}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        resolver = _store(rng)
        elements = _diff(rng)
        if seed % 2:
            node_ids = closure_node_ids(elements, resolver)
        else:  # old evidence only for the given ids
            node_ids = np.sort(rng.choice(NODES, 10, replace=False))
        got = filter_tree(elements, TREE, PARENT, resolver, node_ids)
        rows = sorted(zip(*(got[c].to_pylist()
                            for c in ("pos", "etype", "id", "action", "poly_path"))))
        assert rows == oracle_tree(elements, TREE, PARENT, resolver, node_ids), seed
        for _pos, t, _id, action, path in rows:
            seen[t, action == "delete", path] = seen.get((t, action == "delete", path), 0) + 1
    # every element type kept and deleted under every polygon
    for t in ("node", "way", "relation"):
        for path, _n, _mp in TREE:
            assert seen.get((t, False, path)) and seen.get((t, True, path)), (t, path)


def _rows(table):
    return sorted(zip(*(table[c].to_pylist() for c in ("pos", "etype", "id", "action", "poly_path"))))


def _wide_tree_check(tree, parent, side, seeds, focus):
    """The kernel against the automaton over ``seeds`` random diffs,
    each with its points near ``focus`` random polygons of the tree and
    boxes up to ``side`` wide; -> the (etype, delete?) pairs output."""
    seen = set()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        near = [tree[k] for k in rng.choice(len(tree), focus, replace=False)]
        span = (_near_edges(near, 2 * M), side)
        resolver = _store(rng, span)
        elements = _diff(rng, span)
        node_ids = closure_node_ids(elements, resolver)
        rows = _rows(filter_tree(elements, tree, parent, resolver, node_ids))
        assert rows == oracle_tree(elements, tree, parent, resolver, node_ids), seed
        seen |= {(t, action == "delete") for _pos, t, _id, action, _path in rows}
    return seen


def test_kernel_matches_automaton_on_flat_120_polygon_grid():
    """120 disjoint grid rectangles, one tree level; points near the
    sides of 3 of them per diff (so a relation's members can share a
    rectangle), and boxes up to 1.5 cells wide, so some contain whole
    rectangles."""
    from osm_replication_rust_ray.sources.synth import synth_polygon_grid

    grid = [(p, p, mp) for p, mp in synth_polygon_grid(120)]
    seen = _wide_tree_check(grid, dict.fromkeys((p for p, _n, _mp in grid), None),
                            150_000_000, range(12), focus=3)
    assert seen == {(t, d) for t in ("node", "way", "relation") for d in (False, True)}


def test_kernel_matches_automaton_on_nested_120_polygon_tree():
    """10 roots, 9 children each (the outer ones straddle their root's
    edge) and 2 grandchildren under each central child: 120 polygons,
    three levels, with children filtering their parent's output."""
    tree, parent = [], {}

    def add(path, up, cx, cy, half):
        tree.append((path, path, _square(cx, cy, half)))
        parent[path] = up

    for i in range(10):
        root = f"./r{i}"
        add(root, None, 10 * M * i, 0, 3 * M)
        for j, (dx, dy) in enumerate((dx, dy) for dx in (-3, 0, 3) for dy in (-3, 0, 3)):
            add(f"{root}/c{j}", root, 10 * M * i + dx * M, dy * M, M)
        for k, dx in enumerate((-1, 1)):
            add(f"{root}/c4/g{k}", f"{root}/c4", 10 * M * i + dx * M // 2, 0, M // 2)
    assert len(tree) == 120
    seen = _wide_tree_check(tree, parent, 8 * M, range(20), focus=len(tree))
    assert seen == {(t, d) for t in ("node", "way", "relation") for d in (False, True)}


def _chain(k):
    """Relation rows 301..300+k, each with only the previous one as a
    member; the first has a node inside the polygon.  Row j keeps
    only once row j-1 is known to keep, so the fixpoint needs k rounds
    to see the last keep and one more to confirm."""
    rows = [{"etype": "node", "id": 1, "lon": 0, "lat": 0}]
    for j in range(k):
        ref = {"type": "node", "ref": 1} if j == 0 else {"type": "relation", "ref": 300 + j}
        rows.append({"etype": "relation", "id": 301 + j, "members": [{**ref, "role": ""}],
                     "minlon": 0, "maxlon": 0, "minlat": 0, "maxlat": 0})
    return pa.Table.from_pylist(
        [{"pos": p, "action": "modify", **r} for p, r in enumerate(rows)], schema=ELEMENTS_SCHEMA
    )


def test_relation_chain_needs_one_round_per_link(monkeypatch):
    tree, parent = [("./A", "A", _square(0, 0, M))], {"./A": None}
    elements, resolver = _chain(5), Resolver.empty()
    want = oracle_tree(elements, tree, parent, resolver, [1])
    assert len(want) == 6 and {r[3] for r in want} == {"modify"}
    got = filter_tree(elements, tree, parent, resolver, [1])
    assert sorted(zip(*(got[c].to_pylist() for c in ("pos", "etype", "id", "action", "poly_path")))) == want
    monkeypatch.setattr(kernel, "REL_ROUNDS_CAP", 5)  # 5 links need 6 rounds
    with pytest.raises(FixpointCapError):
        filter_tree(elements, tree, parent, resolver, [1])


def test_relation_chain_past_the_cap_raises():
    tree, parent = [("./A", "A", _square(0, 0, M))], {"./A": None}
    with pytest.raises(FixpointCapError):
        filter_tree(_chain(kernel.REL_ROUNDS_CAP), tree, parent, Resolver.empty(), [1])


def test_soak_18_sequences_cross_two_folds(tmp_path, monkeypatch):
    """18 sequences through run_update on one store: each sequence's
    partitions hold exactly the automaton tree's rows over a second
    store that only ever sees apply_changes."""
    from osm_replication_rust_ray.pipelines.update import run_update
    from osm_replication_rust_ray.sources.synth import synth_changes
    from osm_replication_rust_ray.state.manifest import CheckpointManifest
    from resume_kill_child import load_inputs, seed_store

    work = str(tmp_path)
    store = seed_store("synthetic", work)
    oracle_store = seed_store("synthetic", f"{work}/oracle")
    _changes, tree, parent = load_inputs("synthetic", work)
    diffs = {k: synth_changes(2000, seed=5, seq=k) for k in range(1, 19)}
    folds = []
    real_fold = ElementStore._fold

    def fold(self, tname, pending, extra=None):
        if self is store and pending:
            folds.append(tname)
        return real_fold(self, tname, pending, extra)

    monkeypatch.setattr(ElementStore, "_fold", fold)
    m = CheckpointManifest(f"{work}/ckpt")
    assert run_update(diffs, store, tree, parent, f"{work}/diffs", m) == list(range(1, 19))
    assert folds.count("nodes") == 2
    recs = CheckpointManifest(f"{work}/ckpt")._state["partitions"]
    for k in range(1, 19):
        resolver = Resolver.from_store(oracle_store)
        annotated = annotate_bbox(diffs[k], resolver)
        want = oracle_tree(annotated, tree, parent, resolver,
                           closure_node_ids(annotated, resolver))
        got = []
        for pid, rec in recs.items():
            if pid.startswith(f"seq={k}/"):
                t = pq.read_table(rec["path"])
                path = pid[len(f"seq={k}/"):]
                got += [(*r, path) for r in zip(*(t[c].to_pylist()
                                                  for c in ("pos", "etype", "id", "action")))]
        assert want and sorted(got) == want, k
        oracle_store.apply_changes(diffs[k])


def _run_sequence_vs_oracle(work, seed_store, changes, seq):
    """``run_sequence`` on one store built by ``seed_store(store)``,
    against the bbox oracle, the automaton tree and ``apply_changes``
    on a second store built the same way: the written partitions hold
    exactly the oracle's rows, and the two stores end up equal."""
    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.pipelines.update import run_sequence
    from osm_replication_rust_ray.sources.store import check_store
    from osm_replication_rust_ray.sources.synth import write_polygon_tree
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    import bbox_oracle

    tree, parent = _load_tree(write_polygon_tree(f"{work}/polys"))
    store = ElementStore(f"{work}/db")
    oracle_store = ElementStore(f"{work}/oracle")
    for s in (store, oracle_store):
        s.init()
        seed_store(s)
    resolver = Resolver.from_store(oracle_store)
    annotated = bbox_oracle.annotate_bbox(changes, resolver)
    want = oracle_tree(annotated, tree, parent, resolver,
                       closure_node_ids(annotated, resolver))
    oracle_store.apply_changes(changes)

    got = run_sequence(changes, store, tree, parent, f"{work}/diffs",
                       CheckpointManifest(f"{work}/ckpt"), seq)
    m = CheckpointManifest(f"{work}/ckpt")
    assert m.sequence == seq
    written = []
    for pid, rec in m._state["partitions"].items():
        t = pq.read_table(rec["path"])
        written += [(*r, pid[len(f"seq={seq}/"):]) for r in zip(*(
            t[c].to_pylist() for c in ("pos", "etype", "id", "action")))]
    assert want and sorted(written) == want
    assert sorted(zip(*(got[c].to_pylist()
                        for c in ("pos", "etype", "id", "action", "poly_path")))) == want
    fresh = ElementStore(store.dir)
    for t in ("nodes", "ways", "relations"):
        assert fresh.read_type(t).sort_by("id").equals(oracle_store.read_type(t).sort_by("id"))
    assert check_store(fresh).equals(check_store(oracle_store))
    return fresh


def test_run_sequence_nodes_only_diff_with_sparse_pos(tmp_path):
    """A diff of node rows only: no way or relation row reaches the bbox
    gate, and the positions are sparse (the way and relation rows are
    gone), so nothing may index by position as if it were the row."""
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements

    changes = synth_changes(800)
    changes = changes.filter(pc.equal(changes["etype"], "node"))
    assert pc.max(changes["pos"]).as_py() + 1 > changes.num_rows
    _run_sequence_vs_oracle(
        str(tmp_path), lambda s: s.apply_changes(synth_store_elements(3000)), changes, 1)


def test_run_sequence_over_two_pending_node_deltas(tmp_path):
    """A store holding two pending node deltas: ``run_sequence`` reads
    it merged with its deltas, writes the oracle's rows, and leaves a
    third delta pending (no fold below ``FOLD_DELTAS``)."""
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements

    def seed(s):
        s.apply_changes(synth_store_elements(3000))
        for k in (1, 2):
            s.apply_changes(synth_changes(800, seq=k))
        assert len(s._deltas("nodes")) == 2

    fresh = _run_sequence_vs_oracle(str(tmp_path), seed, synth_changes(800, seq=3), 3)
    assert len(fresh._deltas("nodes")) == 3


def test_coordless_nodes_pin_todays_boxes_open_semantics(tmp_path):
    """OPEN SEMANTICS, pinned as they are: deleted nodes carry no
    lat/lon, and ``annotate_bbox`` gives such a row an int64-min box
    that spreads into every way and relation box using the node; the
    filter then queries the polygon tree with those coordinates.  Only
    the reference (or its goldens) can say what the right boxes and
    verdicts are, so this pins today's through ``run_sequence`` to make
    any change to them a deliberate one."""
    from osm_replication_rust_ray.pipelines.update import run_sequence
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    lo = np.iinfo(np.int64).min
    store = ElementStore(str(tmp_path / "db"))
    store.init()
    store.apply_changes(pa.Table.from_pylist([
        {"pos": 0, "etype": "node", "id": 1, "action": "create", "lat": 0, "lon": 0},
        {"pos": 1, "etype": "node", "id": 2, "action": "create", "lat": 0, "lon": 7 * M},
        {"pos": 2, "etype": "node", "id": 3, "action": "create", "lat": M // 2, "lon": 5 * M // 2},
        {"pos": 3, "etype": "way", "id": 101, "action": "create", "refs": [1, 2]},
        {"pos": 4, "etype": "way", "id": 103, "action": "create", "refs": [3]},
        {"pos": 5, "etype": "relation", "id": 201, "action": "create",
         "members": [{"type": "node", "ref": 3, "role": ""}]},
    ], schema=ELEMENTS_SCHEMA))
    # node 1 and 3: stored, deleted without coordinates; node 5: neither
    rows = [
        {"etype": "node", "id": 1, "action": "delete"},
        {"etype": "node", "id": 5, "action": "delete"},
        {"etype": "node", "id": 3, "action": "delete"},
        {"etype": "way", "id": 101, "action": "modify", "refs": [1, 5]},
        {"etype": "way", "id": 102, "action": "create", "refs": [5]},
        {"etype": "way", "id": 103, "action": "modify", "refs": [3]},
        {"etype": "relation", "id": 201, "action": "modify", "members": [
            {"type": "node", "ref": 5, "role": ""}, {"type": "way", "ref": 101, "role": ""}]},
        {"etype": "node", "id": 2, "action": "modify", "lat": 0, "lon": 7 * M},
    ]
    changes = pa.Table.from_pylist([{"pos": 10 + p, **r} for p, r in enumerate(rows)],
                                   schema=ELEMENTS_SCHEMA)
    seen = []
    got = run_sequence(changes, store, TREE, PARENT, str(tmp_path / "out"),
                       CheckpointManifest(str(tmp_path / "ckpt")), 1, on_annotated=seen.append)
    boxes = list(zip(*(seen[0][c].to_pylist()
                       for c in ("etype", "id", "minlat", "maxlat", "minlon", "maxlon"))))
    assert boxes == [
        ("node", 1, lo, 0, lo, 0),
        ("node", 5, lo, lo, lo, lo),
        ("node", 3, lo, M // 2, lo, 5 * M // 2),
        ("way", 101, lo, 0, lo, 7 * M),
        ("way", 102, lo, lo, lo, lo),
        ("way", 103, lo, M // 2, lo, 5 * M // 2),
        ("relation", 201, lo, M // 2, lo, 7 * M),
        ("node", 2, 0, 0, 7 * M, 7 * M),
    ]
    assert sorted(zip(*(got[c].to_pylist()
                        for c in ("pos", "etype", "id", "action", "poly_path")))) == [
        (10, "node", 1, "delete", "./A"), (10, "node", 1, "delete", "./A/c"),
        (12, "node", 3, "delete", "./A"), (12, "node", 3, "delete", "./A/c"),
        (13, "way", 101, "delete", "./A/c"), (13, "way", 101, "delete", "./B"),
        (13, "way", 101, "modify", "./A"),
        (15, "way", 103, "delete", "./A"), (15, "way", 103, "delete", "./A/c"),
        (16, "relation", 201, "delete", "./A/c"), (16, "relation", 201, "modify", "./A"),
        (16, "relation", 201, "modify", "./B"),
        (17, "node", 2, "modify", "./B"),
    ]


def _synth_tree(work):
    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.sources.synth import write_polygon_tree

    return _load_tree(write_polygon_tree(f"{work}/polys"))


def _count_closures(monkeypatch) -> list:
    """Spy on `DiffClosure.__init__`: one entry per store walk."""
    built = []
    real = kernel.DiffClosure.__init__

    def init(self, elements, resolver):
        built.append(resolver)
        real(self, elements, resolver)

    monkeypatch.setattr(kernel.DiffClosure, "__init__", init)
    return built


def test_run_sequence_walks_the_closure_once(tmp_path, monkeypatch):
    """bbox, closure_node_ids and the filter of one sequence share one
    closure walk (three before it was kept on the resolver)."""
    from osm_replication_rust_ray.pipelines.update import run_sequence
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    tree, parent = _synth_tree(tmp_path)
    store = ElementStore(str(tmp_path / "db"))
    store.init()
    store.apply_changes(synth_store_elements(3000))
    built = _count_closures(monkeypatch)
    m = CheckpointManifest(str(tmp_path / "ckpt"))
    for seq in (1, 2):
        got = run_sequence(synth_changes(800, seq=seq), store, tree, parent,
                           str(tmp_path / "out"), m, seq)
        assert got.num_rows and len(built) == seq


def _refs_changed(changes, new_refs):
    """``changes`` with the refs of its first way row set to ``new_refs``."""
    row = pc.index(changes["etype"], "way").as_py()
    refs = changes["refs"].to_pylist()
    refs[row] = new_refs
    return changes.set_column(changes.schema.get_field_index("refs"), "refs",
                              pa.array(refs, changes.schema.field("refs").type))


def test_closure_walks_again_for_other_refs_or_another_resolver(tmp_path, monkeypatch):
    """The kept closure serves only the same (id, etype, refs, members)
    columns over the same resolver: a diff that differs in one way's
    refs gets a new walk whose assignments equal a fresh resolver's, and
    a second resolver over the same store never reuses the first's."""
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements

    tree, parent = _synth_tree(tmp_path)
    store = ElementStore(str(tmp_path / "db"))
    store.init()
    store.apply_changes(synth_store_elements(3000))
    changes = synth_changes(800)
    unseen = [int(i) for i in pc.max(changes["id"]).as_py() + 1 + np.arange(3)]
    other = _refs_changed(changes, unseen)
    assert not other["refs"].equals(changes["refs"])

    def assign(table, resolver):
        annotated = annotate_bbox(table, resolver)
        return filter_tree(annotated, tree, parent, resolver,
                           closure_node_ids(annotated, resolver))

    built = _count_closures(monkeypatch)
    resolver = Resolver.from_store(store)
    first = kernel.diff_closure(changes, resolver)
    assert kernel.diff_closure(changes.select(["id", "etype", "refs", "members"]),
                               resolver) is first
    got = assign(other, resolver)
    assert len(built) == 2 and set(unseen) <= set(resolver.closure[1].N) - set(first.N)
    want = assign(other, Resolver.from_store(store))
    assert len(built) == 3 and got.equals(want)

    second = Resolver.from_store(store)
    assert kernel.diff_closure(changes, second) is not first
    assert built[-1] is second


def test_node_ids_subset_drops_the_old_points_left_out():
    """``node_ids`` a strict subset of the closure's ``N``: the nodes
    left out give no old-point evidence, as in the automaton, and on
    some diff that changes the assignments."""
    changed = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        resolver = _store(rng)
        elements = _diff(rng)
        full = closure_node_ids(elements, resolver)
        part = np.array(full[::2])
        assert 0 < len(part) < len(full)
        got = filter_tree(elements, TREE, PARENT, resolver, part)
        assert _rows(got) == oracle_tree(elements, TREE, PARENT, resolver, part), seed
        changed += _rows(got) != _rows(filter_tree(elements, TREE, PARENT, resolver, full))
    assert changed


def test_shared_closure_is_read_only(tmp_path):
    """The closure the bbox pass and the filter share is read-only, so
    neither can change what the other reads.  The ``writeable`` flag
    blocks item and slice assignment and in-place operators, but not
    ``np.<ufunc>.at``, which numpy 1.26 lets write into the array."""
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store

    tree, parent = _synth_tree(tmp_path)
    resolver = Resolver(*synth_store(800))
    annotated = annotate_bbox(synth_changes(800), resolver)
    filter_tree(annotated, tree, parent, resolver, closure_node_ids(annotated, resolver))
    c = resolver.closure[1]
    arrays = {k: a for k, a in vars(c).items() if isinstance(a, np.ndarray)}
    assert {"N", "W", "R", "found", "lat", "lon", "nrow", "wst_u", "sleaf"} <= set(arrays)
    for name, a in arrays.items():
        assert not a.flags.writeable, name
    with pytest.raises(ValueError):
        c.N[0] = 0
    with pytest.raises(ValueError):
        c.lat += 1


def test_tree_order_does_not_matter(tmp_path):
    """Polygons listed children first give the same assignments as the
    tree in its own order: each polygon's depth comes from
    ``tree_parent``, not from where it stands in the list."""
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store

    tree, parent = _synth_tree(tmp_path)
    assert len(tree) == 12
    resolver = Resolver(*synth_store(4000))
    annotated = annotate_bbox(synth_changes(4000), resolver)
    nid = closure_node_ids(annotated, resolver)

    def assigned(polys):
        t = filter_tree(annotated, polys, parent, resolver, nid)
        return t.sort_by([("poly_path", "ascending"), ("pos", "ascending")])

    want = assigned(tree)
    assert len(set(want["poly_path"].to_pylist())) > 3
    depth = {p: p.count("/") for p, _n, _mp in tree}
    shuffled = [tree[k] for k in np.random.default_rng(3).permutation(len(tree))]
    for polys in (shuffled, sorted(tree, key=lambda t: -depth[t[0]])):
        assert assigned(polys).equals(want)


def test_one_kernel_call_per_tree_level_and_small_batches(tmp_path, monkeypatch):
    """The evidence kernel runs once per tree level that has a hit; with
    a batch bound of one hit, every polygon runs alone, and the
    assignments do not change."""
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store

    tree, parent = _synth_tree(tmp_path)
    resolver = Resolver(*synth_store(4000))
    annotated = annotate_bbox(synth_changes(4000), resolver)
    nid = closure_node_ids(annotated, resolver)
    calls = []
    real = kernel.DiffEvidence.verdicts

    def verdicts(self, hits, polys, live):
        calls.append(len(polys))
        return real(self, hits, polys, live)

    monkeypatch.setattr(kernel.DiffEvidence, "verdicts", verdicts)
    want = filter_tree(annotated, tree, parent, resolver, nid)
    depth = {}
    for p, _n, _mp in tree:
        up, d = parent[p], 0
        while up is not None:
            up, d = parent[up], d + 1
        depth[p] = d
    out_levels = {depth[p] for p in want["poly_path"].to_pylist()}
    assert 2 <= len(out_levels) <= len(calls) <= len(set(depth.values())) == 3
    assert sum(calls) > len(calls)
    ran = sum(calls)
    monkeypatch.setattr(kernel.DiffEvidence, "batch_hits", 1)
    calls.clear()
    assert filter_tree(annotated, tree, parent, resolver, nid).equals(want)
    assert calls == [1] * ran
