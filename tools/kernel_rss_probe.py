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
    python tools/kernel_rss_probe.py store 40000 400000 4000000
    python tools/kernel_rss_probe.py filter-grid 12 120 1080
    python tools/kernel_rss_probe.py phases 4000

``phases`` splits a replication sequence into its layers at
perfbench ``replicate``'s shape: ``run_sequence`` with ``n``-element
diffs (``synth_changes``, two sequences per pass) over a 40,000-element
store (``synth_store_elements``) on the 12-polygon tree.  Its line
gives the median milliseconds per sequence of ``Resolver.from_store``,
``annotate_bbox``, ``closure_node_ids``, ``filter_tree`` (and inside it
``DiffEvidence.tree_hits``, the evidence kernel
``DiffEvidence.verdicts`` and the rest), ``write_partitioned``,
``apply_changes`` and ``commit``, each timed by wrapping its name, the
time of the store closure walks (``closure_build``, inside the first
caller's figure), and the walks (``DiffClosure`` builds) and kernel
calls per sequence.

``store`` measures how a replication sequence scales with the store
behind it: one child seeds an ``ElementStore`` of ``n`` synthetic
elements (``synth_store_elements``), then a fresh child runs three
``pipelines/update.py:run_sequence`` calls with 4000-element diffs on
the 12-polygon tree against it.  Its line gives each sequence's wall,
the median of sequences 2-3 (``seq_wall_s``), the ``Resolver.from_store``
time before each, and that child's own peak RSS.

``filter-grid`` measures how the tree filter scales with the polygon
count: each size ``n`` takes ``n`` rectangles spread evenly over the
flat 1080-rectangle grid (``synth_polygon_grid``, every
``1080 // n``-th one), filtered with a 4000-element diff over a
4000-element store (``GRID_DIFF``).  Its line gives the ``filter_tree``
wall (best of ``GRID_REPEATS`` calls, the first of which also builds
each polygon's cached fan triangles), the assigned rows and the
child's peak RSS.  The first ``n`` rectangles all lie along the
grid's south edge, where the diff puts no point, so 12 of them
assigned 0 rows and measured only fixed overhead; figures taken
before the spread selection (12 and 120 polygons) are not comparable
with these.

For the other kinds, each size runs in a fresh child process (no Ray), so
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


GRID_DIFF = 4000
GRID_REPEATS = 3


def _filter_grid(n_polys: int) -> dict:
    import time

    from osm_replication_rust_ray.sources.store import Resolver
    from osm_replication_rust_ray.sources.synth import (
        synth_changes,
        synth_polygon_grid,
        synth_store,
    )
    from osm_replication_rust_ray.stages.bbox import annotate_bbox, closure_node_ids
    from osm_replication_rust_ray.stages.filter import filter_tree

    grid = synth_polygon_grid()
    tree = [(p, p, mp) for p, mp in grid[::len(grid) // n_polys][:n_polys]]
    parent = dict.fromkeys((p for p, _n, _mp in tree), None)
    resolver = Resolver(*synth_store(GRID_DIFF))
    annotated = annotate_bbox(synth_changes(GRID_DIFF), resolver)
    node_ids = closure_node_ids(annotated, resolver)
    walls = []
    for _ in range(GRID_REPEATS):
        t = time.perf_counter()
        assigned = filter_tree(annotated, tree, parent, resolver, node_ids).num_rows
        walls.append(time.perf_counter() - t)
    return {"polygons": n_polys, "assigned": assigned,
            "filter_tree_s": round(min(walls), 4),
            "first_call_s": round(walls[0], 4),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)}


STORE_DIFF = 4000


def _store_seed(rows: int, work: str) -> dict:
    import time

    from osm_replication_rust_ray.sources.store import ElementStore
    from osm_replication_rust_ray.sources.synth import synth_store_elements

    elements = synth_store_elements(rows, seed=1)
    t = time.perf_counter()
    store = ElementStore(os.path.join(work, "store"))
    store.init()
    store.apply_changes(elements)
    return {"store_elements": elements.num_rows, "seed_s": round(time.perf_counter() - t, 2)}


def _store_sequences(work: str) -> dict:
    import time

    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.pipelines.update import run_sequence
    from osm_replication_rust_ray.sources.store import ElementStore, Resolver
    from osm_replication_rust_ray.sources.synth import synth_changes, write_polygon_tree
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    tree, parent = _load_tree(write_polygon_tree(os.path.join(work, "polys")))
    store = ElementStore(os.path.join(work, "store"))
    manifest = CheckpointManifest(os.path.join(work, "ckpt"))
    diffs = {k: synth_changes(STORE_DIFF, seed=1, seq=k) for k in (1, 2, 3)}
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    load, wall = [], []
    for k, changes in diffs.items():
        t = time.perf_counter()
        Resolver.from_store(store)
        load.append(round(time.perf_counter() - t, 4))
        t = time.perf_counter()
        run_sequence(changes, store, tree, parent, os.path.join(work, "out"), manifest, k)
        wall.append(round(time.perf_counter() - t, 4))
    return {"seq_s": wall, "seq_wall_s": round(float(np.median(wall[1:])), 4),
            "load_s": load, "rss_before_seqs_mb": round(rss_before / 1024),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)}


PHASE_STORE = 40000
PHASE_PASSES = 5
PHASE_SEQS = 2


def _phases(n_diff: int, work: str) -> dict:
    """Per-phase wall of ``run_sequence`` at ``replicate``'s shape, with
    every phase timed by wrapping its name (as perfbench's tracer does,
    plus the filter's two parts); medians over ``PHASE_PASSES`` passes of
    ``PHASE_SEQS`` sequences, each pass on a fresh copy of the store."""
    import shutil
    import time
    from collections import defaultdict

    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.pipelines import update
    from osm_replication_rust_ray.sources.store import ElementStore, Resolver
    from osm_replication_rust_ray.sources.synth import (
        synth_changes,
        synth_store_elements,
        write_polygon_tree,
    )
    from osm_replication_rust_ray.stages import filter as filt
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    seq_t, calls = defaultdict(float), defaultdict(int)

    def timed(fn, name):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seq_t[name] += time.perf_counter() - t
                calls[name] += 1
        return wrapper

    from_store = Resolver.from_store
    Resolver.from_store = staticmethod(timed(from_store, "from_store"))
    for name in ("annotate_bbox", "closure_node_ids", "filter_tree", "write_partitioned"):
        setattr(update, name, timed(getattr(update, name), name))
    for owner, name, span in ((ElementStore, "apply_changes", "apply_changes"),
                              (CheckpointManifest, "commit", "commit"),
                              (filt.DiffEvidence, "tree_hits", "tree_hits"),
                              (filt.DiffEvidence, "verdicts", "kernel"),
                              (filt.DiffClosure, "__init__", "closure_build")):
        setattr(owner, name, timed(getattr(owner, name), span))

    tree, parent = _load_tree(write_polygon_tree(os.path.join(work, "polys")))
    store0 = os.path.join(work, "store0")
    seed = ElementStore(store0)
    seed.init()
    seed.apply_changes(synth_store_elements(PHASE_STORE, seed=1))
    diffs = {k: synth_changes(n_diff, seed=1, seq=k) for k in range(1, PHASE_SEQS + 1)}
    per_seq = defaultdict(list)
    for p in range(PHASE_PASSES + 1):  # pass 0 warms up
        pass_dir = os.path.join(work, f"pass{p}")
        shutil.copytree(store0, os.path.join(pass_dir, "store"))
        store = ElementStore(os.path.join(pass_dir, "store"))
        manifest = CheckpointManifest(os.path.join(pass_dir, "ckpt"))
        for k, changes in diffs.items():
            seq_t.clear()
            calls.clear()
            t = time.perf_counter()
            update.run_sequence(changes, store, tree, parent, os.path.join(pass_dir, "out"),
                                manifest, k)
            wall = time.perf_counter() - t
            if p:
                per_seq["sequence"].append(wall)
                for name, v in seq_t.items():
                    per_seq[name].append(v)
                per_seq["filter_rest"].append(
                    seq_t["filter_tree"] - seq_t["tree_hits"] - seq_t["kernel"])
                per_seq["closure_builds"].append(calls["closure_build"])
                per_seq["kernel_calls"].append(calls["kernel"])
        shutil.rmtree(pass_dir)
    counts = {k: per_seq.pop(k) for k in ("closure_builds", "kernel_calls")}
    return {"diff": n_diff, "store": PHASE_STORE, "sequences": len(per_seq["sequence"]),
            "median_ms": {k: round(1000 * float(np.median(v)), 2) for k, v in per_seq.items()},
            **{f"{k}_per_seq": float(np.median(v)) for k, v in counts.items()}}


def _run_child(*args) -> dict:
    out = subprocess.run([sys.executable, __file__, "--child", *map(str, args)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _store_main(sizes: list[int]) -> None:
    """One seeding child and one sequence child per size; the peak RSS
    is the sequence child's own (the seeding child's is larger)."""
    import tempfile

    rows_out = []
    for rows in sizes:
        with tempfile.TemporaryDirectory() as work:
            got = {"kind": "store", "rows": rows, **_run_child("store-seed", rows, work),
                   **_run_child("store", rows, work)}
        rows_out.append(got)
        print(json.dumps(got), flush=True)
    if len(rows_out) > 1:
        lo, hi = rows_out[0], rows_out[-1]
        print(json.dumps({"kind": "store",
                          "seq_wall_ratio": round(hi["seq_wall_s"] / lo["seq_wall_s"], 2),
                          "peak_rss_growth_mb": hi["peak_rss_mb"] - lo["peak_rss_mb"]}))


def _child(kind: str, rows: int, *args) -> None:
    if kind == "store-seed":
        print(json.dumps(_store_seed(rows, *args)))
        return
    if kind == "store":
        print(json.dumps(_store_sequences(*args)))
        return
    if kind == "filter-grid":
        print(json.dumps(_filter_grid(rows)))
        return
    if kind == "phases":
        print(json.dumps(_phases(rows, *args)))
        return
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
        _child(sys.argv[2], int(sys.argv[3]), *sys.argv[4:])
        return 0
    kind, sizes = sys.argv[1], [int(s) for s in sys.argv[2:]]
    if kind == "store":
        _store_main(sizes)
        return 0
    if kind == "filter-grid":
        for n_polys in sizes:
            print(json.dumps({"kind": kind, **_run_child(kind, n_polys)}), flush=True)
        return 0
    if kind == "phases":
        import tempfile

        for n_diff in sizes:
            with tempfile.TemporaryDirectory() as work:
                print(json.dumps({"kind": kind, **_run_child(kind, n_diff, work)}), flush=True)
        return 0
    rows_out = []
    for rows in sizes:
        got = _run_child(kind, rows)
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
