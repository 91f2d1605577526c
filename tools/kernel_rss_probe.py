"""Peak resident memory of the single-process kernels whose crossovers
are sized in rows: ``cc._cc_local_kernel`` (connected components, local
regime), ``triangles._tri_build`` (the broadcast regime's build task)
and the in-process replication filter (``filter``: ``synth_store(n)`` +
``synth_changes(n)`` -> ``annotate_bbox`` -> ``closure_node_ids`` ->
``filter_tree`` on the 12-polygon synthetic tree: the phases of
``pipelines/update.py:run_sequence``, which runs every diff in the
calling process, so its peak is the memory one diff needs).

    python tools/kernel_rss_probe.py cc 1000000 2000000 4000000
    python tools/kernel_rss_probe.py tri 1000000 2000000 4000000
    python tools/kernel_rss_probe.py filter 100000 1000000 2000000 4000000

Each size runs in a fresh child process (no Ray), so
``RUSAGE_CHILDREN.ru_maxrss`` is that child's own peak; sizes must be
increasing, because the figure is a maximum over every child waited
for.  The child first builds its input — a random sparse graph, int64
``(src, dst)`` symmetrized rows for cc, canonical distinct ``a < b``
edges for tri, the annotated diff and its store for filter (whose
"kernel" is ``filter_tree``; the line also gives each phase's seconds)
— and reports its resident size before the kernel.
Prints one JSON line per size plus the per-row slope between the
smallest and largest size (the interpreter and library baseline
cancels in the slope).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _filter_input(n: int):
    import tempfile
    import time

    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.sources.store import Resolver
    from osm_replication_rust_ray.sources.synth import (
        synth_changes,
        synth_store,
        write_polygon_tree,
    )
    from osm_replication_rust_ray.stages.bbox import annotate_bbox, closure_node_ids
    from osm_replication_rust_ray.stages.filter import filter_tree

    with tempfile.TemporaryDirectory() as d:
        tree, parent = _load_tree(write_polygon_tree(d))
    resolver = Resolver(*synth_store(n))
    changes = synth_changes(n)
    t0 = time.perf_counter()
    annotated = annotate_bbox(changes, resolver)
    node_ids = closure_node_ids(annotated, resolver)
    t1 = time.perf_counter()
    info = {"annotate_closure_s": round(t1 - t0, 2)}

    def run():
        t = time.perf_counter()
        info["assigned"] = filter_tree(annotated, tree, parent, resolver, node_ids).num_rows
        info["filter_tree_s"] = round(time.perf_counter() - t, 2)

    return changes, run, info


def _child(kind: str, rows: int) -> None:
    rng = np.random.default_rng(rows)
    info = {}
    if kind == "filter":
        table, run, info = _filter_input(rows)
        tables = [table]
    elif kind == "cc":
        from osm_replication_rust_ray.functions.cc import _cc_local_kernel

        n_nodes = max(rows // 4, 2)
        a = rng.integers(0, n_nodes, rows // 2)
        b = rng.integers(0, n_nodes, rows // 2)
        tables = [pa.table({"src": np.concatenate([a, b]),
                            "dst": np.concatenate([b, a])})]
        run = lambda: _cc_local_kernel(tables)  # noqa: E731
    else:
        from osm_replication_rust_ray.functions.triangles import _tri_build

        n_nodes = max(rows // 8, 2)
        a = rng.integers(0, n_nodes, rows + rows // 4)
        b = rng.integers(0, n_nodes, rows + rows // 4)
        key = np.unique(np.minimum(a, b)[a != b] * n_nodes
                        + np.maximum(a, b)[a != b])[:rows]
        tables = [pa.table({"a": key // n_nodes, "b": key % n_nodes})]
        run = lambda: _tri_build(tables)  # noqa: E731
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run()
    print(json.dumps({"input_rows": tables[0].num_rows,
                      "rss_before_kernel_kb": before, **info}))


def main() -> int:
    if sys.argv[1] == "--child":
        _child(sys.argv[2], int(sys.argv[3]))
        return 0
    kind, sizes = sys.argv[1], [int(s) for s in sys.argv[2:]]
    rows_out = []
    for rows in sizes:
        out = subprocess.run(
            [sys.executable, __file__, "--child", kind, str(rows)],
            check=True, capture_output=True, text=True).stdout
        got = json.loads(out.strip().splitlines()[-1])
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        got.update(kind=kind, rows=rows, peak_rss_mb=round(peak_kb / 1024))
        rows_out.append(got)
        print(json.dumps(got), flush=True)
    if len(rows_out) > 1:
        lo, hi = rows_out[0], rows_out[-1]
        slope = ((hi["peak_rss_mb"] - lo["peak_rss_mb"]) * (1 << 20)
                 / (hi["input_rows"] - lo["input_rows"]))
        print(json.dumps({"kind": kind, "peak_bytes_per_row": round(slope)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
