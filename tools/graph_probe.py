"""Scale probe for the graph-operator family (triangles, BFS, walks,
connected components) on a synthetic graph far beyond gate scale.

    python tools/graph_probe.py [n_nodes] [edge_factor] [cpus]

Prints one JSON line with wall seconds + throughput per operator.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # this checkout


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    f = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    cpus = int(sys.argv[3]) if len(sys.argv) > 3 else 32

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus,
                 include_dashboard=False, logging_level="ERROR")

    sys.path.insert(0, ROOT)
    from osm_replication_rust_ray.functions.agg import sorted_distinct
    from osm_replication_rust_ray.functions.cc import connected_components
    from osm_replication_rust_ray.functions.triangles import triangle_counts
    from osm_replication_rust_ray.sources.synth import _mix64
    from osm_replication_rust_ray.tuning import join_partitions

    m = f * n

    def gen(b: pa.Table) -> pa.Table:
        i = b["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = (_mix64((2 * i + 7).astype(np.uint64))
             % np.uint64(n)).astype(np.int64)
        c = (_mix64((2 * i + 8).astype(np.uint64))
             % np.uint64(n)).astype(np.int64)
        keep = a != c
        a, c = a[keep], c[keep]
        return pa.table({"a": pa.array(np.minimum(a, c), pa.int64()),
                         "b": pa.array(np.maximum(a, c), pa.int64())})

    t0 = time.perf_counter()
    edges = sorted_distinct(
        rd.range(m).map_batches(gen, batch_format="pyarrow",
                                batch_size=262144),
        ["a", "b"]).materialize()
    n_edges = edges.count()
    t_gen = time.perf_counter() - t0

    res = {"n_nodes": n, "n_edges": n_edges, "cpus": cpus,
           "gen_s": round(t_gen, 2)}

    t0 = time.perf_counter()
    tri = triangle_counts(edges, join_partitions(n_rows=n_edges),
                          est_edges=n_edges, est_nodes=n)
    res["tri_nodes"] = tri.count()
    res["tri_s"] = round(time.perf_counter() - t0, 2)
    res["tri_edges_per_s"] = int(n_edges / res["tri_s"])

    t0 = time.perf_counter()
    # CC over a sparse subset (every 16th edge) so components are
    # non-trivial rather than one giant blob
    sub = edges.map_batches(
        lambda b: (lambda f: pa.table({"id_a": f["a"], "id_b": f["b"]}))(
            b.filter(pa.array(
                (b["a"].to_numpy(zero_copy_only=False)
                 + b["b"].to_numpy(zero_copy_only=False)) % 16 == 0))),
        batch_format="pyarrow")
    cc = connected_components(sub)
    res["cc_nodes"] = cc.count()
    res["cc_s"] = round(time.perf_counter() - t0, 2)

    print(json.dumps(res))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
