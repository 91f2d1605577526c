"""The whole-diff bbox kernel (`stages/bbox.py`) against the per-row
pass it replaced (`tests/bbox_oracle.py`).

Seeded random diffs over small id pools, so ids repeat at spaced
positions and every relation shape occurs: store and diff relation
self-loops, duplicate members, diamonds, 2-/3-cycles and the
7801<->7802 pair; ways with null, empty or dangling refs, deleted way
occurrences, relations with null member lists, and store rows that are
missing.  Hand-built chains pin the relations_modified fixpoint and the
closure walk: store chains too deep for the old per-row walk run
through `run_sequence`, and the scoped Resolver built from the walk's
ids gives the whole-store output on the `replicate` inputs."""

import time

import numpy as np
import pyarrow as pa
import pytest

from osm_replication_rust_ray.geom import MultiPolygon
from osm_replication_rust_ray.pipelines.update import run_sequence
from osm_replication_rust_ray.sources.osmxml import ELEMENTS_SCHEMA, MEMBER_T
from osm_replication_rust_ray.sources.store import ElementStore, Resolver
from osm_replication_rust_ray.sources.synth import (
    synth_changes,
    synth_store,
    synth_store_elements,
)
from osm_replication_rust_ray.stages import bbox as kernel
from osm_replication_rust_ray.stages.bbox import annotate_bbox, closure_node_ids
from osm_replication_rust_ray.stages.dist import FixpointCapError
from osm_replication_rust_ray.stages.filter import DiffClosure, filter_tree
from osm_replication_rust_ray.state.manifest import CheckpointManifest

import bbox_oracle
from filter_oracle import oracle_tree
from test_bbox_stage import MockResolver, walk_scoped_resolver

POOL = 12
NODES = 1 + np.arange(POOL)
WAYS = 101 + np.arange(POOL)
RELS = np.concatenate([201 + np.arange(POOL), [7801, 7802]])
M = 1_000_000


def _member(rng, self_id):
    t = str(rng.choice(["node", "way", "relation"], p=[0.3, 0.3, 0.4]))
    pool = {"node": NODES, "way": WAYS, "relation": RELS}[t]
    ref = self_id if t == "relation" and rng.random() < 0.15 else int(rng.choice(pool))
    return {"type": t, "ref": int(ref), "role": ""}


def _members(rng, self_id):
    ms = [_member(rng, self_id) for _ in range(rng.integers(0, 4))]
    if ms and rng.random() < 0.3:  # a member listed twice
        ms.append(dict(ms[int(rng.integers(len(ms)))]))
    return ms


def _point(rng):
    return int(rng.integers(-4 * M, 10 * M)), int(rng.integers(-3 * M, 3 * M))


def _store(rng):
    nodes = [(int(i), *_point(rng)) for i in NODES if rng.random() < 0.7]
    ways = [(int(w), [int(r) for r in rng.choice(NODES, rng.integers(0, 5))]
             + [999] * (rng.random() < 0.1))
            for w in WAYS if rng.random() < 0.7]
    rels = {int(r): _members(rng, int(r)) for r in RELS if rng.random() < 0.7}
    a, b, c, d = (int(x) for x in rng.choice(RELS[:POOL], 4, replace=False))
    # a diamond, a 3-cycle through it, and the 7801<->7802 pair
    for src, dst in ((a, b), (a, c), (b, d), (c, d), (d, a), (7801, 7802), (7802, 7801)):
        rels.setdefault(src, []).append({"type": "relation", "ref": dst, "role": ""})
    if rng.random() < 0.3:  # a store relation whose member list is null
        rels[int(rng.choice(RELS[:POOL]))] = None
    return _resolver(nodes, ways, rels)


def _resolver(nodes, ways, rels):
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


def _diff(rng):
    rows = []
    for _ in range(rng.integers(20, 81)):
        row = {"action": str(rng.choice(["create", "modify", "delete"]))}
        t = rng.choice(["node", "way", "relation"], p=[0.45, 0.3, 0.25])
        if t == "node":
            lon, lat = _point(rng)
            row.update(etype="node", id=int(rng.choice(NODES)), lon=lon, lat=lat)
        elif t == "way":
            u = rng.random()
            refs = None if u < 0.1 else [] if u < 0.2 else [
                int(r) for r in rng.choice(np.append(NODES, 998), rng.integers(1, 4))]
            row.update(etype="way", id=int(rng.choice(WAYS)), refs=refs)
        else:
            rid = int(rng.choice(RELS))
            row.update(etype="relation", id=rid,
                       members=_members(rng, rid) if rng.random() < 0.95 else None)
        rows.append(row)
    # positions need only grow in table order; spaced by 1-3 per row
    pos = 7 + np.cumsum(rng.integers(1, 4, len(rows)))
    return pa.Table.from_pylist(
        [{"pos": int(p), **r} for p, r in zip(pos, rows)], schema=ELEMENTS_SCHEMA
    )


def _same(got, want):
    return got.equals(want) and got.schema.equals(want.schema, check_metadata=True)


def test_kernel_matches_per_row_pass_on_random_diffs():
    relation_boxes = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        resolver = _store(rng)
        elements = _diff(rng)
        got = annotate_bbox(elements, resolver)
        want = bbox_oracle.annotate_bbox(elements, resolver)
        assert _same(got, want), seed
        is_rel = np.asarray(got["etype"]) == "relation"
        relation_boxes += int(np.asarray(got["minlat"].is_valid())[is_rel].sum())
    assert relation_boxes > 1000


def test_synthetic_lookup_counts_of_the_oracle():
    """The oracle still makes the store probes of the per-row pass the
    kernel replaced (that pass's counts on these inputs), and the
    kernel's boxes equal the oracle's."""
    changes = synth_changes(2000)
    for resolver, counts in ((MockResolver(), (3488, 603, 127)),
                             (Resolver(*synth_store(2000)), (6001, 679, 156))):
        want = bbox_oracle.annotate_bbox(changes, resolver)
        assert (resolver.num_read_nodes, resolver.num_read_ways,
                resolver.num_read_relations) == counts
        assert _same(annotate_bbox(changes, resolver), want)


def test_running_union_matches_per_row_loop():
    """``_running_union`` (a log-step scan) against a per-row loop, on
    sorted random keys (runs from one row to the whole array) and boxes
    that hold the empty-box sentinels (the int64 extremes)."""
    ext = np.array([kernel.SENT_MIN, kernel.SENT_MAX, -5, 5], np.int64)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        key = np.sort(rng.integers(0, int(rng.integers(1, 60)), int(rng.integers(0, 400))))
        boxes = rng.integers(-1000, 1000, (4, len(key)))
        odd = rng.random((4, len(key))) < 0.1
        boxes[odd] = rng.choice(ext, int(odd.sum()))
        want = boxes.copy()
        for i in range(1, len(key)):
            if key[i] == key[i - 1]:
                want[0::2, i] = np.minimum(want[0::2, i], want[0::2, i - 1])
                want[1::2, i] = np.maximum(want[1::2, i], want[1::2, i - 1])
        got = kernel._running_union(key, boxes)
        assert got.dtype == np.int64 and np.array_equal(got, want), seed


def _chain_rows(k):
    """Relation rows 301..300+k, each with only the previous one as a
    member; the first has node 1.  Row j's box is known only once row
    j-1's is, so the relations_modified fixpoint needs k rounds."""
    rows = [{"etype": "node", "id": 1, "lon": 5, "lat": 6}]
    for j in range(k):
        ref = {"type": "node", "ref": 1} if j == 0 else {"type": "relation", "ref": 300 + j}
        rows.append({"etype": "relation", "id": 301 + j, "members": [{**ref, "role": ""}]})
    return pa.Table.from_pylist(
        [{"pos": p, "action": "modify", **r} for p, r in enumerate(rows)], schema=ELEMENTS_SCHEMA
    )


def test_relation_carry_needs_one_round_per_link(monkeypatch):
    elements = _chain_rows(5)
    got = annotate_bbox(elements, Resolver.empty())
    assert _same(got, bbox_oracle.annotate_bbox(elements, Resolver.empty()))
    assert got["minlat"].to_pylist() == [6] * 6
    monkeypatch.setattr(kernel, "REL_ROUNDS_CAP", 4)
    with pytest.raises(FixpointCapError):
        annotate_bbox(elements, Resolver.empty())


def test_relation_carry_past_the_cap_raises():
    with pytest.raises(FixpointCapError):
        annotate_bbox(_chain_rows(kernel.REL_ROUNDS_CAP + 1), Resolver.empty())


# ---- store relation chains deeper than the per-row walk could take

def _chain_store(depth, twice):
    """Store relations 1000..1000+depth, each holding node 10+k and the
    next relation (listed twice when ``twice``); the diff modifies the
    head relation, with the second as its member, and moves no node."""
    nodes = [(10 + k, k * M // 10, -k * M // 20) for k in range(depth + 1)]
    rels = {}
    for k in range(depth + 1):
        ms = [{"type": "node", "ref": 10 + k, "role": ""}]
        if k < depth:
            ms += [{"type": "relation", "ref": 1001 + k, "role": ""}] * (2 if twice else 1)
        rels[1000 + k] = ms
    return nodes, rels


def _square(cx, cy, half):
    return MultiPolygon.from_rings([(
        np.array([cx - half, cx + half, cx + half, cx - half]),
        np.array([cy - half, cy - half, cy + half, cy + half]),
    )])


@pytest.mark.parametrize("depth,twice", [(30, True), (40, False)])
def test_deep_store_chain_through_run_sequence(tmp_path, depth, twice):
    """The head relation's box spans the whole chain, and the polygon
    around its deepest node keeps it (exact evidence through its diff
    member's store reach).  The oracles' per-row walks guard recursion
    by path, not by a visited set, so they double their work per level
    on the twice-listed chain; they run on the chain with each member
    listed once, which has the same boxes and verdicts (a box union and
    `any` ignore repeats)."""
    nodes, rels = _chain_store(depth, twice)
    store = ElementStore(str(tmp_path / "db"))
    store.init()
    store.write_table("nodes", pa.table({
        "id": pa.array([i for i, _x, _y in nodes], pa.int64()),
        "lat": pa.array([y for _i, _x, y in nodes], pa.int64()),
        "lon": pa.array([x for _i, x, _y in nodes], pa.int64()),
    }))
    store.write_table("relations", pa.table({
        "id": pa.array(list(rels), pa.int64()),
        "members": pa.array(list(rels.values()), pa.list_(MEMBER_T)),
    }))
    elements = pa.Table.from_pylist(
        [{"pos": 0, "etype": "relation", "id": 1000, "action": "modify",
          "members": [{"type": "relation", "ref": 1001, "role": ""}]}],
        schema=ELEMENTS_SCHEMA,
    )
    _i, x, y = nodes[-1]
    tree, parent = [("./A", "A", _square(x, y, M // 100))], {"./A": None}
    annotated = []
    t0 = time.perf_counter()
    got = run_sequence(elements, store, tree, parent, str(tmp_path / "out"),
                       CheckpointManifest(str(tmp_path / "ckpt")), 1,
                       on_annotated=annotated.append)
    assert time.perf_counter() - t0 < 1.0

    once = _resolver(nodes, [], {r: [dict(t) for t in {tuple(m.items()) for m in ms}]
                                 for r, ms in rels.items()})
    want = bbox_oracle.annotate_bbox(elements, once)
    assert _same(annotated[0], want)
    assert want.select(["minlat", "maxlat", "minlon", "maxlon"]).to_pylist() == [
        {"minlat": -depth * M // 20, "maxlat": 0, "minlon": 0, "maxlon": depth * M // 10}]
    node_ids = closure_node_ids(want, once)
    assert node_ids.tolist() == [i for i, _x, _y in nodes]
    rows = sorted(zip(*(got[c].to_pylist() for c in ("pos", "etype", "id", "action", "poly_path"))))
    assert rows == oracle_tree(want, tree, parent, once, node_ids) == [
        (0, "relation", 1000, "modify", "./A")]


def test_walk_scoped_resolver_gives_the_whole_store_output(tmp_path):
    """A Resolver loaded with only the walk's N/W/R ids gives the bbox
    and filter output of the whole-store Resolver on the `replicate`
    inputs, so the walk's ids are all a diff reads from the store."""
    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.sources.synth import write_polygon_tree

    tree, parent = _load_tree(write_polygon_tree(str(tmp_path / "polys")))
    for seed in (1, 2, 3):
        store = ElementStore(str(tmp_path / f"db{seed}"))
        store.init()
        store.apply_changes(synth_store_elements(40000, seed=seed))
        changes = synth_changes(4000, seed=seed, seq=1)
        walk = DiffClosure(changes, Resolver.from_store(store))
        outputs = []
        for resolver in (Resolver.from_store(store),
                         walk_scoped_resolver(store, walk)):
            annotated = annotate_bbox(changes, resolver)
            nid = closure_node_ids(annotated, resolver)
            outputs.append((annotated, filter_tree(annotated, tree, parent, resolver, nid)))
        (a_full, f_full), (a_scoped, f_scoped) = outputs
        assert _same(a_scoped, a_full), seed
        assert f_full.num_rows and _same(f_scoped, f_full), seed
