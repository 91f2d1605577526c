"""Synthetic changes generator (FIXTURES.md §3) + the full micro-batch
pipeline at a larger-than-fixture diff size."""

import time

import numpy as np
import pyarrow.compute as pc

from osm_replication_rust_ray.geom import MultiPolygon
from osm_replication_rust_ray.sources.store import ElementStore
from osm_replication_rust_ray.sources.synth import synth_changes
from osm_replication_rust_ray.stages.bbox import annotate_bbox
from osm_replication_rust_ray.sources.store import Resolver
from osm_replication_rust_ray.state.manifest import CheckpointManifest


def test_synth_changes_shape_and_edge_cases():
    t = synth_changes(2000)
    etypes = set(t["etype"].to_pylist())
    assert etypes == {"node", "way", "relation"}
    actions = set(t["action"].to_pylist())
    assert actions == {"create", "modify", "delete"}
    ids = t.filter(pc.equal(t["etype"], "relation"))["id"].to_pylist()
    assert 7801 in ids and 7802 in ids  # recursion fixture
    # ways referencing entirely-missing nodes exist (no-bbox drop case)
    refs = t.filter(pc.equal(t["etype"], "way"))["refs"].to_pylist()
    assert any(r == [999_999_998, 999_999_997] for r in refs)
    # determinism
    t2 = synth_changes(2000)
    assert t.equals(t2)


def test_bbox_on_synth_changes_is_deterministic_and_fast():
    changes = synth_changes(5000)
    resolver = Resolver(None, None, None)
    t0 = time.perf_counter()
    out = annotate_bbox(changes, resolver)
    dt = time.perf_counter() - t0
    assert out.num_rows == changes.num_rows
    # every node with new coords gets a bbox
    nodes = out.filter(pc.equal(out["etype"], "node"))
    assert pc.count(nodes["minlat"]).as_py() == nodes.num_rows
    out2 = annotate_bbox(changes, Resolver(None, None, None))
    assert out.equals(out2)
    assert dt < 30.0, f"bbox pass too slow: {dt:.1f}s"


def test_update_pipeline_on_synth_changes(ray_session, tmp_path):
    from osm_replication_rust_ray.pipelines.update import run_update

    store = ElementStore(str(tmp_path / "db"))
    store.init()
    changes = synth_changes(3000)
    # one big polygon covering a quarter of the world
    mp = MultiPolygon.from_rings(
        [(
            np.array([-1_000_000_000, 1_000_000_000, 1_000_000_000, -1_000_000_000]),
            np.array([-500_000_000, -500_000_000, 500_000_000, 500_000_000]),
        )]
    )
    tree = [("./region", "region", mp)]
    parent = {"./region": None}
    m = CheckpointManifest(str(tmp_path / "ckpt"))
    done = run_update({1: changes, 2: synth_changes(1000, seq=2)},
                      store, tree, parent, str(tmp_path / "out"), m)
    assert done == [1, 2]
    m2 = CheckpointManifest(str(tmp_path / "ckpt"))
    assert m2.sequence == 2
    rows, nbytes = m2.totals()
    assert rows > 0 and nbytes > 0
