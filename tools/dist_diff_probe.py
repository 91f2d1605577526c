"""Measured scale probe for the distributed diff pipeline (round-2
verdict item #1's "done" evidence): a >=1M-element synthetic diff +
a ~matching-size synthetic store run through build_diff_plan ->
annotate_bbox_dist -> filter_verdicts_dist (one polygon) ->
filter_tree_dist (the 12-polygon synthetic tree) entirely as ray.data
blocks (no single-frame pandas of the diff), wall time per phase
printed as one JSON line.  Results are recorded in SCALE.md.

Usage:  python tools/dist_diff_probe.py [n_elements] [num_cpus]

GRAFT_DIST_TRACE=1 additionally times EVERY ``Dataset.materialize()``
barrier with its engine-side call site (file:line) and prints a sorted
per-barrier breakdown at the end — the attribution tool behind the
round-4 barrier-chain work (round-3 verdict item #2).
"""

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def install_trace() -> list:
    """Monkeypatch Dataset.materialize to record (site, seconds)."""
    import traceback

    import ray.data

    records: list[tuple[str, float]] = []
    orig = ray.data.Dataset.materialize

    def timed(self, *a, **kw):
        site = "?"
        for fr in reversed(traceback.extract_stack()[:-1]):
            if "osm_replication_rust_ray" in fr.filename:
                site = f"{os.path.basename(fr.filename)}:{fr.lineno}"
                break
        t0 = time.perf_counter()
        out = orig(self, *a, **kw)
        records.append((site, time.perf_counter() - t0))
        return out

    ray.data.Dataset.materialize = timed
    return records


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    num_cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    import numpy as np
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=num_cpus,
            include_dashboard=False, logging_level="ERROR",
        )
    import ray.data

    trace = install_trace() if os.environ.get("GRAFT_DIST_TRACE") else None

    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.geom import MultiPolygon
    from osm_replication_rust_ray.sources.synth import (
        synth_changes,
        synth_store,
        write_polygon_tree,
    )
    from osm_replication_rust_ray.stages.bbox_dist import annotate_bbox_dist
    from osm_replication_rust_ray.stages.dist import (
        build_diff_plan,
        flat_store_from_tables,
    )
    from osm_replication_rust_ray.stages.filter_dist import (
        filter_tree_dist,
        filter_verdicts_dist,
    )
    from osm_replication_rust_ray.tuning import join_partitions

    t0 = time.perf_counter()
    elements = synth_changes(n)
    nodes, ways, rels = synth_store(n)
    t_synth = time.perf_counter() - t0

    flat = flat_store_from_tables(nodes, ways, rels)
    nparts = join_partitions(n_rows=n)
    n_blocks = max(4, min(num_cpus * 4, n // 16384 + 1))

    t0 = time.perf_counter()
    plan = build_diff_plan(
        ray.data.from_arrow(elements).repartition(n_blocks), flat,
        num_partitions=nparts,
    )
    t_plan = time.perf_counter() - t0

    t0 = time.perf_counter()
    boxes = annotate_bbox_dist(plan).materialize()
    n_boxes = boxes.count()
    t_bbox = time.perf_counter() - t0

    half = 900_000_000
    mp = MultiPolygon.from_rings(
        [(
            np.array([-half, half, half, -half], np.int64),
            np.array([-half, -half, half, half], np.int64),
        )]
    )
    t0 = time.perf_counter()
    verdicts = filter_verdicts_dist(plan, boxes, mp).materialize()
    n_verdicts = verdicts.count()
    t_filter = time.perf_counter() - t0

    assert n_boxes == elements.num_rows == n_verdicts
    total = t_plan + t_bbox + t_filter

    # the tree phase is timed on its own: total_s and elements_per_s
    # stay comparable with the one-polygon runs in SCALE.md
    with tempfile.TemporaryDirectory() as polys:
        tree, parent = _load_tree(write_polygon_tree(polys))
    t0 = time.perf_counter()
    n_assigned = filter_tree_dist(plan, boxes, tree, parent).materialize().count()
    t_tree = time.perf_counter() - t0
    print(
        json.dumps(
            {
                "n_elements": elements.num_rows,
                "num_cpus": num_cpus,
                "synth_s": round(t_synth, 2),
                "plan_s": round(t_plan, 2),
                "bbox_s": round(t_bbox, 2),
                "filter_s": round(t_filter, 2),
                "tree_s": round(t_tree, 2),
                "tree_polygons": len(tree),
                "tree_assigned": n_assigned,
                "total_s": round(total, 2),
                "elements_per_s": round(elements.num_rows / total, 1),
            }
        )
    )
    if trace is not None:
        agg: dict[str, list[float]] = {}
        for site, sec in trace:
            agg.setdefault(site, []).append(sec)
        rows = sorted(
            ((sum(v), len(v), site) for site, v in agg.items()), reverse=True
        )
        print(f"-- materialize barriers: {len(trace)} calls, "
              f"{sum(sec for _, sec in trace):.1f} s total --", file=sys.stderr)
        for tot, cnt, site in rows:
            print(f"{tot:8.2f}s  x{cnt:<3d} {site}", file=sys.stderr)
    ray.shutdown()


if __name__ == "__main__":
    main()
