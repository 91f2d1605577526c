"""Frozen-snapshot goldens of this engine's own outputs — regression
tripwires for future refactors (complementing the reference-fixture
goldens, which pin parity rather than our full output surface)."""

import json
import os

import numpy as np

GOLD = os.path.join(os.path.dirname(__file__), "goldens")
RES = "/root/reference/tests/resources"


def test_filter_output_matches_frozen_golden(tmp_path):
    from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
    from osm_replication_rust_ray.sources.polyfile import read_multipolygon
    from osm_replication_rust_ray.sources.store import ElementStore, Resolver
    from osm_replication_rust_ray.stages.bbox import closure_node_ids
    from osm_replication_rust_ray.stages.filter import filter_elements

    store = ElementStore(str(tmp_path / "db"))
    store.import_pbf(f"{RES}/saint_barthelemy.osm.pbf")
    elements = parse_osm_xml(f"{RES}/saint_barthelemy.bbox.osc.gz")
    _, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    resolver = Resolver.from_store(store)
    out = filter_elements(
        elements, mp, resolver, closure_node_ids(elements, resolver)
    )
    got = [
        {"pos": p, "etype": t, "id": i, "action": a}
        for p, t, i, a in zip(
            out["pos"].to_pylist(), out["etype"].to_pylist(),
            out["id"].to_pylist(), out["action"].to_pylist(),
        )
    ]
    with open(f"{GOLD}/stb_filter_store.json") as f:
        want = json.load(f)
    assert got == want


def test_flagship_counts_match_frozen_golden(ray_session):
    import pandas as pd

    from osm_replication_rust_ray.pipelines.spatial import (
        assignment_counts,
        flagship_assignments,
    )

    got = assignment_counts(flagship_assignments(n_rows=2000, concurrency=2))
    want = pd.read_json(f"{GOLD}/flagship_2000_counts.json")
    got = got.sort_values(["poly_path", "verdict"]).reset_index(drop=True)
    want = want.sort_values(["poly_path", "verdict"]).reset_index(drop=True)
    assert got["poly_path"].tolist() == want["poly_path"].tolist()
    assert got["verdict"].tolist() == want["verdict"].tolist()
    assert got["n_rows"].tolist() == want["n_rows"].tolist()
