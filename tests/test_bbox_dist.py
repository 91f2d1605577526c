"""Distributed bbox annotation (stages/bbox_dist.py) parity.

The sequential `annotate_bbox` is the reference-parity oracle (itself
byte-golden vs saint_barthelemy.bbox.osc.gz and equal to the per-row
pass of tests/bbox_oracle.py, which pins the 33/7/9 lookup counts); the
distributed path must produce IDENTICAL boxes on:

- deterministic synthetic diffs + stores across sizes (covers node
  prefix chaining, way old/new refs, missing store elements, relation
  nesting, the mutually recursive 7801<->7802 pair), and
- the reference's own fixture diff + pbf store (golden).
"""

import numpy as np
import pytest
import pyarrow as pa

from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
from osm_replication_rust_ray.sources.store import ElementStore, Resolver
from osm_replication_rust_ray.sources.synth import synth_changes, synth_store
from osm_replication_rust_ray.stages.bbox import annotate_bbox
from osm_replication_rust_ray.stages.bbox_dist import annotate_bbox_dist
from osm_replication_rust_ray.stages.dist import (
    build_diff_plan,
    flat_store_from_store,
    flat_store_from_tables,
)

RES = "/root/reference/tests/resources"
BOX = ("minlat", "maxlat", "minlon", "maxlon")


def _boxes_equal(got_df, exp_df):
    assert len(got_df) == len(exp_df)
    for c in BOX:
        a = got_df[c].to_numpy(dtype=float)
        b = exp_df[c].to_numpy(dtype=float)
        m = (a == b) | (np.isnan(a) & np.isnan(b))
        assert m.all(), f"{c}: rows {np.flatnonzero(~m)[:5]}"


def _dist_boxes(elements: pa.Table, flat, n_blocks=4):
    import ray.data

    plan = build_diff_plan(
        ray.data.from_arrow(elements).repartition(n_blocks), flat
    )
    return (
        annotate_bbox_dist(plan)
        .to_pandas()
        .sort_values("pos")
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("n", [60, 300])
def test_bbox_dist_matches_sequential_synth(ray_session, n):
    elements = synth_changes(n)
    nodes, ways, rels = synth_store(n)
    seq = (
        annotate_bbox(elements, Resolver(nodes, ways, rels))
        .select(["pos", *BOX])
        .to_pandas()
        .sort_values("pos")
        .reset_index(drop=True)
    )
    got = _dist_boxes(elements, flat_store_from_tables(nodes, ways, rels))
    _boxes_equal(got, seq)


def test_bbox_dist_fixture_golden(ray_session, tmp_path):
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
    store = ElementStore(str(tmp_path / "db"), n_buckets=16)
    store.import_pbf(f"{RES}/saint_barthelemy.osm.pbf")
    got = _dist_boxes(elements, flat_store_from_store(store), n_blocks=3)
    expected = (
        parse_osm_xml(f"{RES}/saint_barthelemy.bbox.osc.gz")
        .to_pandas()
        .sort_values("pos")
        .reset_index(drop=True)
    )
    _boxes_equal(got, expected)


def test_bbox_dist_empty_store(ray_session):
    """Diff against an empty store (boxes from diff geometry only)."""
    elements = synth_changes(60)
    seq = (
        annotate_bbox(elements, Resolver(None, None, None))
        .select(["pos", *BOX])
        .to_pandas()
        .sort_values("pos")
        .reset_index(drop=True)
    )
    got = _dist_boxes(elements, flat_store_from_tables(None, None, None))
    _boxes_equal(got, seq)


def test_rel_closure_cap_exhaustion_raises(ray_session):
    """Round-3 advice (medium): a bounded fixpoint that hits its round
    cap without converging must RAISE, not silently truncate — a
    relation chain deeper than the cap would otherwise yield boxes /
    verdicts that diverge from the sequential parity path."""
    import ray.data

    from osm_replication_rust_ray.stages.dist import (
        MTYPE_REL,
        FixpointCapError,
        rel_closure,
    )

    # rel i -> rel i+1 chain, depth 6 (ids 1..7; 7 has a node leaf)
    ids = list(range(1, 7)) + [7]
    mtypes = [MTYPE_REL] * 6 + [0]
    mrefs = list(range(2, 8)) + [42]
    members = ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "mtype": pa.array(mtypes, pa.int8()),
                "mref": pa.array(mrefs, pa.int64()),
            }
        )
    )
    seeds = ray.data.from_arrow(pa.table({"src": pa.array([1], pa.int64())}))

    with pytest.raises(FixpointCapError, match="max_rounds"):
        rel_closure(seeds, members, max_rounds=3)

    # ample cap: converges and reaches the deepest leaf
    out = rel_closure(seeds, members, max_rounds=10).to_pandas()
    leaf = out[(out["kind"] == 0)]
    assert set(leaf["ref"]) == {42}
    assert set(out[out["kind"] == MTYPE_REL]["ref"]) == set(range(1, 8))
