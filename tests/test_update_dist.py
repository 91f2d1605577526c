"""The replication loop's distributed branch (update._run_sequence_dist)
must write the SAME rows as the sequential parity path — same
partitions, same (pos, etype, id, action, poly_path) row set, same
manifest lineage counts — with the diff flowing through ray.data
blocks.  Verdict-level equality of the underlying machinery is pinned
separately (tests/test_bbox_dist.py, tests/test_filter_dist.py); this
is the end-to-end wiring check, fixture-sized so the suite stays fast.
"""

import os

import pandas as pd
import pyarrow.parquet as pq

from osm_replication_rust_ray.pipelines.update import run_sequence
from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
from osm_replication_rust_ray.sources.polyfile import read_multipolygon
from osm_replication_rust_ray.sources.store import ElementStore
from osm_replication_rust_ray.state.manifest import CheckpointManifest

RES = "/root/reference/tests/resources"
COLS = ["pos", "etype", "id", "action", "poly_path"]


def _read_all(out_dir: str) -> pd.DataFrame:
    frames = []
    for dirpath, _d, files in os.walk(out_dir):
        frames += [
            pq.read_table(os.path.join(dirpath, f)).to_pandas()
            for f in files if f.endswith(".parquet")
        ]
    return (
        pd.concat(frames)[COLS].sort_values(COLS).reset_index(drop=True)
        if frames else pd.DataFrame(columns=COLS)
    )


def test_run_sequence_dist_matches_sequential(ray_session, tmp_path):
    changes = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
    name, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    tree, parent = [("./stb", name, mp)], {"./stb": None}

    outs = {}
    for mode, distributed in (("seq", False), ("dist", True)):
        work = str(tmp_path / mode)
        store = ElementStore(f"{work}/db", n_buckets=16)
        store.import_pbf(f"{RES}/saint_barthelemy.osm.pbf")
        m = CheckpointManifest(f"{work}/ckpt")
        run_sequence(
            changes, store, tree, parent, f"{work}/diffs", m, 1,
            distributed=distributed,
        )
        m2 = CheckpointManifest(f"{work}/ckpt")
        assert m2.sequence == 1
        outs[mode] = (_read_all(f"{work}/diffs"), m2.totals())

    (seq_rows, seq_tot), (dist_rows, dist_tot) = outs["seq"], outs["dist"]
    assert len(seq_rows) > 0
    assert seq_rows.equals(dist_rows)
    assert seq_tot[0] == dist_tot[0]  # same lineage row counts


import hashlib

import pytest


def test_run_sequence_dist_sees_pending_deltas(ray_session, tmp_path):
    """A store holding pending deltas: the distributed branch reads it
    through ``as_dataset``, which folds them first, and must agree with
    the sequential branch (which merges them on read) on the written
    assignments and on the store it leaves."""
    from osm_replication_rust_ray.geom import MultiPolygon
    from osm_replication_rust_ray.sources.store import check_store
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements
    from tests.test_filter_dist import _rect

    tree = [
        ("./a", "a", MultiPolygon.from_rings([_rect(0, 0, 900_000_000)])),
        ("./a/inner", "inner", MultiPolygon.from_rings([_rect(0, 0, 300_000_000)])),
    ]
    parent = {"./a": None, "./a/inner": "./a"}
    outs = {}
    for mode, distributed in (("seq", False), ("dist", True)):
        work = str(tmp_path / mode)
        store = ElementStore(f"{work}/db", n_buckets=16)
        store.init()
        store.apply_changes(synth_store_elements(3000))
        for k in (1, 2):
            store.apply_changes(synth_changes(800, seq=k))
        assert len(store._deltas("nodes")) == 2
        m = CheckpointManifest(f"{work}/ckpt")
        run_sequence(
            synth_changes(800, seq=3), store, tree, parent, f"{work}/diffs", m, 3,
            distributed=distributed,
        )
        rows = _read_all(f"{work}/diffs")
        fresh = ElementStore(store.dir)
        outs[mode] = (
            hashlib.sha256(rows.to_csv().encode()).hexdigest(),
            len(rows),
            {t: fresh.read_type(t).sort_by("id") for t in ("nodes", "ways", "relations")},
            check_store(fresh),
            len(fresh._deltas("nodes")),
        )
    (seq_digest, seq_n, seq_store, seq_bad, seq_pending) = outs["seq"]
    (dist_digest, _, dist_store, dist_bad, dist_pending) = outs["dist"]
    # the sequential run merged on read; the distributed one folded first
    assert (seq_pending, dist_pending) == (3, 1)
    assert seq_n > 0
    assert seq_digest == dist_digest
    for t, table in seq_store.items():
        assert table.equals(dist_store[t])
    assert seq_bad.equals(dist_bad)


def _store_hash(store_dir: str) -> str:
    """Order-insensitive content hash over every store bucket file."""
    digests = []
    for dirpath, _d, files in os.walk(store_dir):
        for f in sorted(files):
            if not f.endswith(".parquet"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, f), store_dir)
            t = pq.read_table(os.path.join(dirpath, f))
            digests.append(
                (rel, hashlib.sha256(t.to_pandas().to_csv().encode()).hexdigest())
            )
    return hashlib.sha256(repr(sorted(digests)).encode()).hexdigest()


@pytest.mark.skipif(
    not os.environ.get("GRAFT_SLOW_TESTS"),
    reason="multi-minute e2e run; opt in with GRAFT_SLOW_TESTS=1",
)
def test_run_sequence_dist_parity_1m(ray_session, tmp_path):
    """Round-3 verdict item #5: the distributed auto-route
    (DIST_DIFF_ROWS) is justified at >=1M elements, but the parity
    suite only exercised <=300-element diffs plus one fixture.  Pin the
    route the 100x story depends on at representative scale: the FULL
    run_sequence(distributed=True) — store seeding, bbox joins, filter
    fixpoint, partitioned write, store apply, manifest commit — must
    produce output rows, lineage counts AND post-apply store buckets
    hash-equal to the sequential path at 1M elements.  Runtime is
    recorded in SCALE.md."""
    import time

    from osm_replication_rust_ray.geom import MultiPolygon
    from osm_replication_rust_ray.sources.synth import (
        synth_changes,
        synth_store_elements,
    )
    import numpy as np

    n = int(os.environ.get("GRAFT_SLOW_N", "1000000"))
    changes = synth_changes(n)
    seed_elements = synth_store_elements(n)
    half = 900_000_000
    mp = MultiPolygon.from_rings(
        [(
            np.array([-half, half, half, -half], np.int64),
            np.array([-half, -half, half, half], np.int64),
        )]
    )
    tree, parent = [("./all", "all", mp)], {"./all": None}

    outs = {}
    for mode, distributed in (("seq", False), ("dist", True)):
        work = str(tmp_path / mode)
        store = ElementStore(f"{work}/db", n_buckets=16)
        store.apply_changes(seed_elements)
        m = CheckpointManifest(f"{work}/ckpt")
        t0 = time.perf_counter()
        run_sequence(
            changes, store, tree, parent, f"{work}/diffs", m, 1,
            distributed=distributed,
        )
        wall = time.perf_counter() - t0
        m2 = CheckpointManifest(f"{work}/ckpt")
        assert m2.sequence == 1
        outs[mode] = (
            _read_all(f"{work}/diffs"), m2.totals(), _store_hash(f"{work}/db"),
        )
        print(f"{mode}: {n} elements in {wall:.1f} s")

    (seq_rows, seq_tot, seq_store) = outs["seq"]
    (dist_rows, dist_tot, dist_store) = outs["dist"]
    assert len(seq_rows) > 0
    assert seq_rows.equals(dist_rows)
    assert seq_tot[0] == dist_tot[0]
    assert seq_store == dist_store  # post-apply buckets hash-equal


def test_run_sequence_dist_nodes_only_diff(ray_session, tmp_path):
    """A diff of node rows only: no way or relation occurrence reaches
    the bbox-gate joins, and the positions are sparse (the way and
    relation rows are gone), so the tree driver's pos-indexed arrays
    must be sized by the largest position, not the row count."""
    import pyarrow.compute as pc

    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.sources.synth import (
        synth_changes,
        synth_store_elements,
        write_polygon_tree,
    )

    tree, _parent = _load_tree(write_polygon_tree(str(tmp_path / "polys")))
    tree, parent = tree[:1], {tree[0][0]: None}
    changes = synth_changes(800)
    changes = changes.filter(pc.equal(changes["etype"], "node"))
    assert pc.max(changes["pos"]).as_py() + 1 > changes.num_rows
    outs = {}
    for mode, distributed in (("seq", False), ("dist", True)):
        work = str(tmp_path / mode)
        store = ElementStore(f"{work}/db", n_buckets=16)
        store.init()
        store.apply_changes(synth_store_elements(3000))
        m = CheckpointManifest(f"{work}/ckpt")
        run_sequence(
            changes, store, tree, parent, f"{work}/diffs", m, 1,
            distributed=distributed,
        )
        outs[mode] = _read_all(f"{work}/diffs")
    assert len(outs["seq"]) > 0
    assert outs["seq"].equals(outs["dist"])
